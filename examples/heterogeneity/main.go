// Heterogeneity study: how data skew affects each method.
//
// This example reproduces the spirit of the paper's Fig. 5/6: it runs
// FedTrip, FedAvg, FedProx, and MOON on the same task under increasingly
// skewed partitions (IID, Dir-0.5, Dir-0.1, Orthogonal-5) and prints the
// final accuracy of each, showing how regularization pays off as
// heterogeneity grows.
//
//	go run ./examples/heterogeneity
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

func main() {
	const (
		clients   = 10
		perClient = 60
		rounds    = 20
	)
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 300, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	schemes := []partition.Scheme{
		partition.IID(),
		partition.Dirichlet(0.5),
		partition.Dirichlet(0.1),
		partition.Orthogonal(5),
	}
	methods := []string{"fedtrip", "fedavg", "fedprox", "moon"}

	fmt.Printf("%-14s", "scheme")
	for _, m := range methods {
		fmt.Printf("  %-8s", m)
	}
	fmt.Println()
	for _, scheme := range schemes {
		parts, err := partition.Partition(scheme, train.Y, train.Classes,
			clients, perClient, rand.New(rand.NewSource(5)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s", scheme)
		for _, m := range methods {
			algo, err := algos.New(m, algos.Params{Mu: muFor(m)})
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.Start(core.RunSpec{Config: core.Config{
				Model: nn.ModelSpec{
					Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10,
				},
				Train: train, Test: test, Parts: parts,
				Rounds: rounds, ClientsPerRound: 4,
				BatchSize: 10, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: algo, Seed: 6,
			}})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8.4f", res.FinalAccuracy)
		}
		fmt.Println()
	}
	fmt.Println("\n(final accuracy after", rounds, "rounds, MLP; higher is better)")
}

// muFor applies the paper's per-method regularization strengths for MLP.
func muFor(method string) float64 {
	switch method {
	case "fedtrip":
		return 1.0
	case "fedprox":
		return 0.1
	case "moon":
		return 1.0
	default:
		return 0
	}
}
