// Quickstart: the smallest complete FedTrip run.
//
// It builds a synthetic MNIST-like dataset, partitions it across 10
// clients with Dirichlet(0.5) label skew, trains a small CNN with FedTrip
// for 15 communication rounds, and prints the accuracy trajectory — the
// minimal version of the paper's experimental loop.
//
//	go run ./examples/quickstart
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
	// 1. Data: a synthetic 10-class image dataset (60 samples per client
	//    keeps this example fast; see DESIGN.md for the generator).
	const (
		clients   = 10
		perClient = 60
	)
	train, test, err := data.Generate(data.Spec{
		Kind:  data.KindMNIST,
		Train: clients * perClient,
		Test:  300,
		Seed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Heterogeneity: Dirichlet(0.5) label skew, as in the paper's
	//    default setting.
	parts, err := partition.Partition(
		partition.Dirichlet(0.5), train.Y, train.Classes,
		clients, perClient, rand.New(rand.NewSource(2)))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Method: FedTrip with the paper's mu for conv models.
	algo, err := algos.New("fedtrip", algos.Params{Mu: 0.4})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Federated training: 4-of-10 clients per round, SGDm locally.
	res, err := core.Start(core.RunSpec{Config: core.Config{
		Model: nn.ModelSpec{
			Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28,
			Classes: 10, Scale: 0.5,
		},
		Train: train, Test: test, Parts: parts,
		Rounds: 15, ClientsPerRound: 4,
		BatchSize: 10, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Algo: algo, Seed: 3,
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round  test-accuracy")
	for i, acc := range res.Accuracy {
		fmt.Printf("%5d  %.4f\n", i+1, acc)
	}
	fmt.Printf("\nbest %.4f | final %.4f | %.2f GFLOPs | %.2f MB traffic\n",
		res.BestAccuracy, res.FinalAccuracy, res.TotalGFLOPs(),
		float64(res.CommBytesByRound[len(res.CommBytesByRound)-1])/1e6)
}
