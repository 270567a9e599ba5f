// Quickstart: the smallest complete FedTrip run.
//
// The whole experiment is one string of fedtrip flags: a synthetic
// MNIST-like dataset split across 10 clients with Dirichlet(0.5) label
// skew, a small CNN, FedTrip with the paper's mu for conv models, 4-of-10
// clients per round for 15 rounds. runtext.FromLine turns the string into
// a core.RunSpec, core.Start runs it. The string is paste-able:
// `go run ./cmd/fedtrip <line>` is the same run with per-round progress.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/runtext"
)

const line = "-algo fedtrip:0.4 -dataset mnist -model cnn -scheme dir -alpha 0.5 " +
	"-clients 10 -k 4 -samples 60 -test 300 -rounds 15"

func main() {
	spec, err := runtext.FromLine(line)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Start(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fedtrip", line)
	fmt.Println("round  test-accuracy")
	for i, acc := range res.Accuracy {
		fmt.Printf("%5d  %.4f\n", i+1, acc)
	}
	fmt.Printf("\nbest %.4f | final %.4f | %.2f GFLOPs | %.2f MB traffic\n",
		res.BestAccuracy, res.FinalAccuracy, res.TotalGFLOPs(),
		float64(res.CommBytesByRound[len(res.CommBytesByRound)-1])/1e6)
}
