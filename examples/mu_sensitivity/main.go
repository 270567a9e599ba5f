// Mu sensitivity: the paper's Fig. 7 as a runnable example.
//
// It sweeps FedTrip's regularization strength mu on an MLP task and
// reports the best accuracy and convergence speed of each setting. The
// paper's finding: small mu converges slowly, moderate mu (~0.4-1.0)
// accelerates convergence, and large mu trades accuracy for speed.
//
//	go run ./examples/mu_sensitivity
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
	"repro/internal/stats"
)

func main() {
	const (
		clients   = 10
		perClient = 60
		rounds    = 25
	)
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindFMNIST, Train: clients * perClient, Test: 300, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(22)))
	if err != nil {
		log.Fatal(err)
	}

	runWith := func(name string, p algos.Params) *core.Result {
		algo, err := algos.New(name, p)
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
			Algo: algo, Seed: 23,
		}})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// The rounds-to-target bar comes from the FedAvg baseline, mirroring
	// the harness's adaptive-target convention.
	ref := runWith("fedavg", algos.Params{})
	target := 0.97 * ref.FinalAccuracy
	fmt.Printf("FedAvg baseline: final %.4f -> target %.4f\n\n", ref.FinalAccuracy, target)

	fmt.Printf("%-6s  %-8s  %-8s  %s\n", "mu", "best", "final", "rounds-to-target")
	for _, mu := range []float64{0.1, 0.4, 1.0, 1.5, 2.5} {
		res := runWith("fedtrip", algos.Params{Mu: mu})
		rt := stats.RoundsToTarget(res.Accuracy, target)
		rtStr := fmt.Sprintf("%d", rt)
		if rt < 0 {
			rtStr = fmt.Sprintf(">%d", rounds)
		}
		fmt.Printf("%-6.2f  %-8.4f  %-8.4f  %s\n", mu, res.BestAccuracy, res.FinalAccuracy, rtStr)
	}
}
