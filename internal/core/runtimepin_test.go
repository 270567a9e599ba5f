package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/algos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// The runtime-name pin: RuntimeSync and RuntimeBarrier at zero latency
// take different Validate branches and different default policies
// (FedAvg vs FedBuff at staleness 0), and must still produce the same
// run. Every registry method, every transport family, faults, robust
// policies, sparse evaluation and the shard count go
// through both names, each uninterrupted and (where the method can be
// snapshotted) resumed from a mid-run snapshot; the digests of all of
// them must agree.
func TestAsyncBarrierZeroLatencyMatchesSync(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name      string
		algo      string
		transport string
		faults    string
		policy    string
		mutate    func(*core.Config)
	}
	var cases []variant
	for _, name := range algos.Names() {
		cases = append(cases, variant{name: "algo=" + name, algo: name})
	}
	cases = append(cases,
		variant{name: "transport=f32", transport: "f32"},
		variant{name: "transport=q8", transport: "q8"},
		variant{name: "transport=topk+ef", transport: "topk:0.05+ef"},
		variant{name: "faults", faults: "byz:0.25,signflip+crash:0.1"},
		variant{name: "faults+median", faults: "byz:0.25,signflip+crash:0.1", policy: "median"},
		variant{name: "policy=fedavg+clip", policy: "fedavg+clip:5"},
		variant{name: "evalevery=3", mutate: func(c *core.Config) { c.EvalEvery = 3 }},
		variant{name: "shards=1", mutate: func(c *core.Config) { c.Shards = 1 }},
		variant{name: "shards=3", mutate: func(c *core.Config) { c.Shards = 3 }},
	)
	for _, tc := range cases {
		tc := tc
		// build returns a fresh spec each call: methods and error-feedback
		// transports carry run-long state and must not be shared.
		build := func(t *testing.T, rt core.Runtime) core.RunSpec {
			t.Helper()
			name := tc.algo
			if name == "" {
				name = "fedtrip"
			}
			algo, err := algos.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := comm.ParseTransport(tc.transport)
			if err != nil {
				t.Fatal(err)
			}
			sp := core.RunSpec{
				Config: core.Config{
					Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
					Train: train, Test: test, Parts: parts,
					Rounds: 4, ClientsPerRound: 3,
					BatchSize: 20, LocalEpochs: 1,
					LR: 0.01, Momentum: 0.9,
					Algo: algo, Seed: 1, Transport: tr,
				},
				Runtime: rt,
			}
			if tc.faults != "" {
				if sp.Faults, err = core.ParseFaults(tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			if tc.policy != "" {
				if sp.Policy, err = core.ParsePolicy(tc.policy); err != nil {
					t.Fatal(err)
				}
			}
			if tc.mutate != nil {
				tc.mutate(&sp.Config)
			}
			return sp
		}
		t.Run(tc.name, func(t *testing.T) {
			syncRes := runMetered(t, build(t, core.RuntimeSync))
			barRes := runMetered(t, build(t, core.RuntimeBarrier))
			requireSameRun(t, "barrier vs sync", syncRes, barRes)
			for i, ts := range barRes.SimTimeByRound {
				if ts != 0 {
					t.Fatalf("zero latency but sim time %v at round %d", ts, i+1)
				}
			}
			probe := build(t, core.RuntimeSync)
			_, agg := probe.Algo.(core.Aggregator)
			_, pre := probe.Algo.(core.PreRounder)
			if agg || pre {
				return // Snapshot refuses server-state methods
			}
			requireSameRun(t, "resumed sync vs sync", syncRes, resumeAt(t, build, core.RuntimeSync, 2))
			requireSameRun(t, "resumed barrier vs sync", syncRes, resumeAt(t, build, core.RuntimeBarrier, 2))
		})
	}
}

// runMetered runs a lock-step spec to completion and checks its FLOP
// series against the naive oracle: with every client joined, the metered
// total is the sum of all client counters — PreRound passes included.
func runMetered(t *testing.T, spec core.RunSpec) *core.Result {
	t.Helper()
	rs, err := core.NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	var fleet int64
	for _, c := range rs.Server().Clients() {
		fleet += c.Counter.Total()
	}
	if got, want := res.TotalGFLOPs(), float64(fleet)/1e9; got != want {
		t.Fatalf("%s run metered %v GFLOPs, the fleet's counters sum to %v", spec.Runtime, got, want)
	}
	return res
}

// resumeAt steps a fresh run to round k, snapshots it, abandons it, and
// finishes the run from the snapshot in a second RunState.
func resumeAt(t *testing.T, build func(*testing.T, core.Runtime) core.RunSpec, rt core.Runtime, k int) *core.Result {
	t.Helper()
	rs, err := core.NewRunState(build(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	rs2, err := core.Resume(&buf, core.ResumeSpec{Spec: build(t, rt)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameRun compares the two trajectories at full bit precision:
// Result.Digest hashes every metric series and summary counter.
func requireSameRun(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if want.Digest() != got.Digest() {
		t.Fatalf("%s: trajectories differ\n want %+v\n  got %+v", label, *want, *got)
	}
}
