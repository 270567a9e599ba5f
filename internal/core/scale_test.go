package core

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/prng"
)

// scaleConfig builds a 1000-client fleet with tiny per-client datasets and
// a quarter-width MLP — big enough to exercise the population machinery,
// small enough for CI.
func scaleConfig(t *testing.T, shards int) RunSpec {
	t.Helper()
	return scaleConfigOn(t, shards, data.KindMNIST, nn.ArchMLP, 0.25)
}

// scaleConfigOn is scaleConfig on another dataset kind and model.
func scaleConfigOn(t *testing.T, shards int, kind data.Kind, arch nn.Arch, scale float64) RunSpec {
	t.Helper()
	const clients, perClient = 1000, 4
	train, test, err := data.Generate(data.Spec{
		Kind: kind, Train: clients * perClient, Test: 100, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y, train.Classes,
		clients, perClient, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	return RunSpec{
		Config: Config{
			Model: nn.ModelSpec{
				Arch: arch, Channels: train.Channels, Height: train.Height, Width: train.Width, Classes: train.Classes, Scale: scale,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: 6, ClientsPerRound: 8,
			BatchSize: 4, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: NewFedTrip(0.4), Seed: 73,
			EvalEvery: 100, // population mechanics, not accuracy, under test
			Shards:    shards,
		},
		Runtime:     RuntimeAsync,
		Concurrency: 64,
		BufferSize:  16,
		Latency:     mustFleet(ParseLatency("straggler:1,10,7")),
	}
}

// A 1000-client buffered run must complete, keep its virtual clock
// monotone, and touch a meaningful slice of the fleet.
func TestThousandClientBufferedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	acfg := scaleConfig(t, 0)
	rs, err := NewRunState(acfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != acfg.Rounds {
		t.Fatalf("rounds %d", res.Rounds)
	}
	prev := 0.0
	for i, ts := range res.SimTimeByRound {
		if ts < prev {
			t.Fatalf("sim time decreased at aggregation %d", i+1)
		}
		prev = ts
	}
	distinct, dispatches := rs.Participation()
	// 6 aggregations x 16 arrivals + up to 64 still in flight.
	if dispatches < int64(acfg.Rounds*acfg.BufferSize) {
		t.Fatalf("only %d dispatches recorded", dispatches)
	}
	if distinct < acfg.Rounds*acfg.BufferSize/2 {
		t.Fatalf("only %d distinct clients touched — dispatch not spreading over the fleet", distinct)
	}
	if distinct > 1000 {
		t.Fatalf("distinct participants %d exceeds the population", distinct)
	}
}

// Trajectories must not depend on the shard count: per-client RNG streams
// make a 1-shard and a 3-shard run bit-for-bit identical — mini-batch
// order on every model, and on the AlexNet row the dropout masks too,
// which follow the client and not the engine that happens to train it.
func TestShardCountDoesNotChangeTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		kind  data.Kind
		arch  nn.Arch
		scale float64
	}{
		{data.KindMNIST, nn.ArchMLP, 0.25},
		{data.KindCIFAR, nn.ArchAlexNet, 0.05},
	} {
		run := func(shards int) *Result {
			res, err := Start(scaleConfigOn(t, shards, c.kind, c.arch, c.scale))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		requireSameResult(t, string(c.arch)+": 3 shards vs 1", run(1), run(3))
	}
}

// hundredKSpec builds a 100k-client fleet over a small shared sample
// pool: clients overlap in the pool, so the dataset stays tiny while
// the population machinery (idle set, heap slots, aggregate churn,
// stateless per-client derivation) runs at full width.
func hundredKSpec(t *testing.T, shards int) RunSpec {
	t.Helper()
	const clients, perClient, pool = 100_000, 4, 2000
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: pool, Test: 100, Seed: 171,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(172)
	parts := make([][]int, clients)
	flat := make([]int, clients*perClient)
	for i := range parts {
		p := flat[i*perClient : (i+1)*perClient : (i+1)*perClient]
		for k := range p {
			p[k] = rng.Intn(pool)
		}
		parts[i] = p
	}
	sp := RunSpec{
		Config: Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: 4, ClientsPerRound: 8,
			BatchSize: 4, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: NewFedTrip(0.4), Seed: 173,
			EvalEvery: 1 << 20,
			Shards:    shards,
		},
		Runtime:     RuntimeAsync,
		Concurrency: 256,
		BufferSize:  64,
		Devices:     mustFleet(ParseDeviceDist("tiered")),
		Network:     mustFleet(ParseNetDist("tiered")),
		Churn: &ChurnModel{
			MeanUp:   400,
			MeanDown: 40,
			Drops:    []MassDrop{{At: 6, Fraction: 0.2, Duration: 8}},
		},
	}
	return sp
}

// The shard-independence pin at population scale: a 100k-client churning
// heterogeneous fleet must produce bit-for-bit the same trajectory on 1
// and 3 shards.
func TestHundredKShardCountIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(shards int) *Result {
		res, err := Start(hundredKSpec(t, shards))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r3 := run(3)
	requireSameResult(t, "100k shard independence", r1, r3)
}

// The kill/resume pin at population scale: snapshotting a 100k-client
// churning fleet mid-run — compact churn state, parked jobs, heap slot
// map and all — and resuming in a fresh process must match the
// uninterrupted run bit-for-bit.
func TestHundredKResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runResumeScenario(t, hundredKSpec(t, 0), 2)
}
