package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d core.FleetDist, err error) core.FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}

// A job trains when its arrival comes due, with as many of the next due
// ones as fill each shard's share, so on two shards a due job often
// trains beside one that arrives later, and on one shard never. Which
// shard trains a job, and when, must be invisible: the same digest at one
// shard and at two, uninterrupted and across a snapshot taken at a
// boundary, where the jobs still waiting to train train first. Runs in
// -short, under the race job too.
func TestInlineBurstMatchesSubmitted(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 360, Test: 100, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 8, 40, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	base := func(t *testing.T, shards int) core.RunSpec {
		return core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 12, ClientsPerRound: 3,
				BatchSize: 20, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: core.NewFedTrip(0.4), Seed: 5, Shards: shards,
			},
			Runtime:     core.RuntimeAsync,
			Concurrency: 4,
			BufferSize:  2,
		}
	}
	cases := map[string]func(*testing.T, *core.RunSpec){
		"devices+churn": func(t *testing.T, sp *core.RunSpec) {
			sp.Devices = mustFleet(core.ParseDeviceDist("lognormal:0,0.6"))
			sp.AdaptiveLocalSteps = true
			sp.Churn = &core.ChurnModel{MeanUp: 10, MeanDown: 5, Drops: []core.MassDrop{{At: 8, Fraction: 0.3, Duration: 6}}}
		},
		// The one architecture with dropout: the loop's engine and a
		// worker's must draw a client's masks from the same place.
		"devices+alexnet": func(t *testing.T, sp *core.RunSpec) {
			// Parts index samples, so they serve any corpus of train's
			// length. Half of each part, a small test split and a short
			// run keep the convolutions affordable under the race detector.
			rgb, rgbTest, err := data.Generate(data.Spec{Kind: data.KindCIFAR, Train: train.Len(), Test: 40, Seed: 51})
			if err != nil {
				t.Fatal(err)
			}
			sp.Train, sp.Test, sp.Rounds, sp.BatchSize = rgb, rgbTest, 7, 10
			sp.Parts = make([][]int, len(parts))
			for i, p := range parts {
				sp.Parts[i] = p[:len(p)/2]
			}
			sp.Model = nn.ModelSpec{Arch: nn.ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.05}
			sp.Devices = mustFleet(core.ParseDeviceDist("lognormal:0,0.6"))
			sp.AdaptiveLocalSteps = true
		},
		"network+topk+ef": func(t *testing.T, sp *core.RunSpec) {
			tr, err := comm.ParseTransport("topk:0.01+ef")
			if err != nil {
				t.Fatal(err)
			}
			sp.Transport = tr
			sp.Latency = mustFleet(core.ParseLatency("exp:2"))
			sp.Network = mustFleet(core.ParseNetDist("tiered"))
		},
	}
	for name, mode := range cases {
		mode := mode
		t.Run(name, func(t *testing.T) {
			// A fresh spec per run: the transport carries error-feedback state.
			build := func(shards int) func(*testing.T, core.Runtime) core.RunSpec {
				return func(t *testing.T, _ core.Runtime) core.RunSpec {
					sp := base(t, shards)
					mode(t, &sp)
					return sp
				}
			}
			one, err := core.Start(build(1)(t, core.RuntimeAsync))
			if err != nil {
				t.Fatal(err)
			}
			two, err := core.Start(build(2)(t, core.RuntimeAsync))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "two shards vs one", one, two)
			requireSameRun(t, "snapshot and resume", one, resumeAt(t, build(2), core.RuntimeAsync, 5))
		})
	}
}
