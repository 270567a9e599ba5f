package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// The lock-step round under churn: the barrier runtime is the event loop
// behind its dispatch gate, so a client that drops mid-round arrives after
// its rejoin and one that drops for good is voided, and the round merges
// its survivors. Like every other trajectory, that one must not depend on
// the shard count and must resume bit-for-bit from a mid-run snapshot.
// Each case also checks that the churn really bit (against the same run
// without it) and that every merged update is a staleness-0 upload of at
// most K clients.
func TestBarrierChurnShardsAndResume(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 100, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 10, 40, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	base := func(t *testing.T, shards int) core.RunSpec {
		return core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 8, ClientsPerRound: k,
				BatchSize: 20, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: core.NewFedTrip(0.4), Seed: 9, Shards: shards,
				OnUpdates: func(round int, _ []float64, updates []core.Update) {
					if len(updates) == 0 || len(updates) > k {
						t.Errorf("round %d merged %d updates, want 1..%d", round, len(updates), k)
					}
					for _, u := range updates {
						if u.Staleness != 0 {
							t.Errorf("round %d merged a staleness-%d update", round, u.Staleness)
						}
					}
				},
			},
			Runtime: core.RuntimeBarrier,
		}
	}
	cases := map[string]struct {
		mode func(*core.RunSpec)
		// voids: a permanent mass drop must lose in-flight updates.
		voids bool
	}{
		"latency+markov+drop": {mode: func(sp *core.RunSpec) {
			sp.Latency = mustFleet(core.ParseLatency("exp:2"))
			sp.Churn = &core.ChurnModel{MeanUp: 8, MeanDown: 4, Drops: []core.MassDrop{{At: 5, Fraction: 0.4, Duration: 6}}}
		}},
		"devices+markov+kill": {voids: true, mode: func(sp *core.RunSpec) {
			sp.Devices = mustFleet(core.ParseDeviceDist("lognormal:0,0.6"))
			sp.FlopRate = 1e6
			sp.AdaptiveLocalSteps = true
			sp.Churn = &core.ChurnModel{MeanUp: 30, MeanDown: 10, Drops: []core.MassDrop{{At: 40, Fraction: 0.5, Duration: 0}}}
		}},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			build := func(shards int) func(*testing.T, core.Runtime) core.RunSpec {
				return func(t *testing.T, _ core.Runtime) core.RunSpec {
					sp := base(t, shards)
					tc.mode(&sp)
					return sp
				}
			}
			one, err := core.Start(build(1)(t, core.RuntimeBarrier))
			if err != nil {
				t.Fatal(err)
			}
			two, err := core.Start(build(2)(t, core.RuntimeBarrier))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "two shards vs one", one, two)
			requireSameRun(t, "snapshot and resume", one, resumeAt(t, build(2), core.RuntimeBarrier, 3))

			still := build(2)(t, core.RuntimeBarrier)
			still.Churn = nil
			calm, err := core.Start(still)
			if err != nil {
				t.Fatal(err)
			}
			if calm.Digest() == one.Digest() {
				t.Fatal("the churning run matches the run without churn; the case pins nothing")
			}
			if tc.voids && one.DroppedUpdates == 0 {
				t.Fatal("the permanent mass drop voided no in-flight update")
			}
		})
	}
}

// The priced lock-step runs' snapshot streams, taken before the barrier
// loop became the gated event loop. The gate pops priced arrivals in
// virtual-time order but merges — and returns its clients to the idle
// set, whose order the stream carries — in dispatch order, as the old
// loop did; these pins hold it to that. Each case pins the run's digest,
// and the digest of the run resumed from its stream after round 2, which
// streamPins holds.
func TestLockStepStreamsPinned(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 8, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, latency, devices string
		k                      int
		digest                 string
	}{
		{"straggler", "straggler:1,10,3", "", 3, "e29541c06b4f77f9"},
		{"exp", "exp:2", "", 4, "a1cf5b114a981d09"},
		{"devices", "", "tiered", 3, "ef566e3e9d19759a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.RunSpec {
				return core.RunSpec{
					Config: core.Config{
						Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
						Train: train, Test: test, Parts: parts,
						Rounds: 5, ClientsPerRound: tc.k,
						BatchSize: 20, LocalEpochs: 1,
						LR: 0.01, Momentum: 0.9,
						Algo: core.NewFedTrip(0.4), Seed: 1,
					},
					Runtime:            core.RuntimeBarrier,
					Latency:            mustFleet(core.ParseLatency(tc.latency)),
					Devices:            mustFleet(core.ParseDeviceDist(tc.devices)),
					AdaptiveLocalSteps: tc.devices != "",
				}
			}
			full, err := core.Start(build())
			if err != nil {
				t.Fatal(err)
			}
			if got := full.Digest(); got != tc.digest {
				t.Errorf("digest %s, pinned %s", got, tc.digest)
			}
			if got := core.ResumePinned(t, build, 2).Digest(); got != tc.digest {
				t.Errorf("resumed digest %s, pinned %s", got, tc.digest)
			}
		})
	}
}

// The sync runtime has no clock for an availability process to run on;
// the barrier runtime takes one.
func TestChurnNeedsAClock(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 80, Test: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y, train.Classes, 4, 20, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for rt, ok := range map[core.Runtime]bool{core.RuntimeSync: false, core.RuntimeBarrier: true, core.RuntimeAsync: true} {
		sp := core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 1, ClientsPerRound: 2, BatchSize: 20, LocalEpochs: 1, LR: 0.01,
				Algo: core.NewFedTrip(0.4),
			},
			Runtime: rt,
			Churn:   &core.ChurnModel{MeanUp: 10, MeanDown: 5},
		}
		if err := sp.Validate(); (err == nil) != ok {
			t.Errorf("%s with churn: Validate = %v, want accepted %t", rt, err, ok)
		}
	}
}
