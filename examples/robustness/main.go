// Robustness study: Byzantine fault injection and robust aggregation.
//
// An adversarial fleet against four -policy values: 15% of the 20 clients
// sign-flip their trained models before upload and another 5% crash
// mid-upload (their update arrives as non-finite garbage). The plain mean
// merges every finite upload and degrades; the coordinate-wise median and
// the trimmed mean shed the flipped extremes; the norm-clip guard pulls
// corrupted updates back onto a ball around the global model; crash
// uploads reach the model on no policy — the merge screen rejects and
// counts them. Every run is one string of fedtrip flags (fleet + policy,
// + faults), paste-able after `go run ./cmd/fedtrip`.
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/runtext"
)

const (
	fleet = "-algo fedtrip:1 -model mlp -scale 1 -clients 20 -k 8 -samples 60 -test 300 -rounds 20 -seed 13 " +
		"-runtime async -latency exp:2 -concurrency 8 -buffer 8"
	faults = "-faults byz:0.15,signflip+crash:0.05"
)

func run(line string) *core.Result {
	spec, err := runtext.FromLine(line)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Start(spec)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Printf("fedtrip %s -policy ... [%s]\n", fleet, faults)
	fmt.Printf("%-18s  %-8s  %-8s  %s\n", "-policy", "honest", "attacked", "rejected")
	for _, p := range []string{"fedavg", "median", "trimmedmean:0.25", "fedavg+clip:1"} {
		honest, attacked := run(fleet+" -policy "+p), run(fleet+" -policy "+p+" "+faults)
		fmt.Printf("%-18s  %-8.4f  %-8.4f  %d\n", p, honest.FinalAccuracy, attacked.FinalAccuracy, attacked.RejectedUpdates)
	}
	fmt.Println("\n(final accuracy after 20 aggregations; rejected counts screened non-finite uploads)")
}
