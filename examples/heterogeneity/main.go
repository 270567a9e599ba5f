// Heterogeneity study: how data skew affects each method.
//
// In the spirit of the paper's Fig. 5/6: FedTrip, FedAvg, FedProx and MOON
// (each at the paper's MLP regularization strength) on the same task under
// increasingly skewed partitions, final accuracy per cell — accuracy falls
// as the skew grows, and the regularized methods lose less of it. Every
// cell is task + scheme + method joined into one string of fedtrip flags,
// paste-able after `go run ./cmd/fedtrip`.
//
//	go run ./examples/heterogeneity
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/runtext"
)

const task = "-model mlp -scale 1 -samples 60 -test 300 -rounds 20 -seed 11"

var (
	schemes = []string{"-scheme iid", "-scheme dir -alpha 0.5", "-scheme dir -alpha 0.1", "-scheme orthogonal -clusters 5"}
	methods = []string{"-algo fedtrip:1", "-algo fedavg", "-algo fedprox:0.1", "-algo moon:1"}
)

func main() {
	fmt.Printf("fedtrip %s ...\n%-32s", task, "")
	for _, m := range methods {
		fmt.Printf("  %-22s", m)
	}
	fmt.Println()
	for _, scheme := range schemes {
		fmt.Printf("%-32s", scheme)
		for _, method := range methods {
			spec, err := runtext.FromLine(task + " " + scheme + " " + method)
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.Start(spec)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-22.4f", res.FinalAccuracy)
		}
		fmt.Println()
	}
	fmt.Println("\n(final accuracy after 20 rounds, MLP; higher is better)")
}
