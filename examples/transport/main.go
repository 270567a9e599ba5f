// Transport: measured wire traffic, compression, and bandwidth-priced
// simulated time.
//
// The paper's communication columns assume float32 model shipping. The
// first four rows run one FedTrip task through a ladder of -transport
// values — lossless float64 hand-off, the float32 wire format, 8-bit delta
// quantization, top-k sparsification with error feedback — and report
// measured traffic (the downlink stays dense float32: half of the f32 row)
// against accuracy; lock-step rounds have no clock, hence 0.0 s. The last
// two price the network: async over 10/25 Mbps 30 ms links, every dispatch
// pays rtt + measured-bytes/bandwidth in simulated time, so sparsification
// buys simulated wall-clock, not just bytes. Every row is one string of
// fedtrip flags, paste-able after `go run ./cmd/fedtrip`.
//
//	go run ./examples/transport
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/runtext"
)

const (
	task  = "-model mlp -scale 1 -mu 1 -samples 60 -test 300 -rounds 15 -seed 41"
	links = "-runtime async -bandwidth-dist const:10,25,30 "
)

func main() {
	fmt.Printf("fedtrip %s ...\n", task)
	for _, row := range []string{
		"-transport lossless", "-transport f32", "-transport q8", "-transport topk:0.01+ef",
		links + "-transport f32", links + "-transport topk:0.01+ef",
	} {
		spec, err := runtext.FromLine(task + " " + row)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Start(spec)
		if err != nil {
			log.Fatal(err)
		}
		last := res.Rounds - 1
		fmt.Printf("  %-70s final acc %.4f, wire %6.2f MB, simulated %4.1f s\n", row,
			res.FinalAccuracy, float64(res.CommBytesByRound[last])/1e6, res.SimTimeByRound[last])
	}
}
