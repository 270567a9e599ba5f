// Transport: real wire-format communication accounting, compression, and
// bandwidth-priced simulated time.
//
// The paper's communication columns assume float32 model shipping. This
// example first runs the same FedTrip task through a ladder of transports
// — lossless float64 handoff, the float32 wire format, 8-bit delta
// quantization, and top-k sparsification with error feedback — and
// reports measured traffic against the accuracy impact.
//
// It then prices the network: the same run on the async runtime over a
// constant 10/25 Mbps fleet, where every dispatch pays
// rtt + measured-bytes/bandwidth in simulated time, so the sparsifying
// transport finishes the run in less simulated time, not just fewer
// bytes.
//
//	go run ./examples/transport
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

func main() {
	const (
		clients   = 10
		perClient = 60
		rounds    = 15
	)
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 300, Seed: 41,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}

	baseConfig := func(tr core.Transport) core.Config {
		return core.Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: rounds, ClientsPerRound: 4,
			BatchSize: 10, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: core.NewFedTrip(1.0), Seed: 43,
			Transport: tr,
		}
	}

	fmt.Println("transport ladder (FedTrip, MLP, 15 rounds, sync):")
	for _, spec := range []string{"lossless", "f32", "q8", "topk:0.01+ef"} {
		trI, err := comm.ParseTransport(spec)
		if err != nil {
			log.Fatal(err)
		}
		tr := trI.(core.MeteredTransport)
		res, err := core.Start(core.RunSpec{Config: baseConfig(tr)})
		if err != nil {
			log.Fatal(err)
		}
		down, up := tr.WireBytes()
		fmt.Printf("  %-13s final acc %.4f, down %6.2f MB, up %6.2f MB\n",
			spec, res.FinalAccuracy, float64(down)/1e6, float64(up)/1e6)
	}

	// Part two: price the network. Same task on the async runtime over a
	// constant 10 Mbps up / 25 Mbps down / 30 ms fleet; upload time now
	// depends on the bytes the transport actually moved, so the
	// sparsifying transport buys simulated wall-clock, not just bytes.
	fmt.Println("\nbandwidth-priced (async, const:10,25,30 links):")
	for _, spec := range []string{"f32", "topk:0.01+ef"} {
		trI, err := comm.ParseTransport(spec)
		if err != nil {
			log.Fatal(err)
		}
		net, err := core.ParseNetDist("const:10,25,30")
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Start(core.RunSpec{
			Config:  baseConfig(trI),
			Runtime: core.RuntimeAsync,
			Network: net,
		})
		if err != nil {
			log.Fatal(err)
		}
		simTime := res.SimTimeByRound[len(res.SimTimeByRound)-1]
		wire := res.CommBytesByRound[len(res.CommBytesByRound)-1]
		fmt.Printf("  %-13s final acc %.4f, wire %6.2f MB, simulated %6.1f s\n",
			spec, res.FinalAccuracy, float64(wire)/1e6, simTime)
	}
}
