package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// TestResumeRejectsChangedSpec: a snapshot resumed under a spec that
// differs in exactly one trajectory-determining setting is refused with
// the different-run error, both fingerprints printed. Every row was
// accepted silently — and continued on a trajectory neither run has —
// while the fingerprint was built from Policy.Name() and Algo.Name(),
// which drop every argument. (FedDyn's alpha is not a row: FedDyn keeps
// server-side state, so Snapshot refuses the method outright.)
func TestResumeRejectsChangedSpec(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		policy, serverLR string
		algo             string
		params           algos.Params
	}
	rows := []struct {
		name string
		a, b side
	}{
		{"trimmedmean:0.05->0.4", side{policy: "trimmedmean:0.05"}, side{policy: "trimmedmean:0.4"}},
		{"krum:0.1->0.3", side{policy: "krum:0.1"}, side{policy: "krum:0.3"}},
		{"fedasync:0.2->0.9", side{policy: "fedasync:0.2"}, side{policy: "fedasync:0.9"}},
		{"fedbuff:0.5->2", side{policy: "fedbuff:0.5"}, side{policy: "fedbuff:2"}},
		{"maxstale:0->9", side{policy: "fedbuff+maxstale:0"}, side{policy: "fedbuff+maxstale:9"}},
		{"clip:0.5->50", side{policy: "fedbuff+clip:0.5"}, side{policy: "fedbuff+clip:50"}},
		{"server-lr const:0.1->const:1", side{serverLR: "const:0.1"}, side{serverLR: "const:1"}},
		{"server-lr const:0.5->invsqrt:0.5", side{serverLR: "const:0.5"}, side{serverLR: "invsqrt:0.5"}},
		{"discount 0->3", side{policy: "fedbuff:0"}, side{policy: "fedbuff:3"}},
		{"fedtrip mu 0.1->5", side{algo: "fedtrip", params: algos.Params{Mu: 0.1}}, side{algo: "fedtrip", params: algos.Params{Mu: 5}}},
		{"fedprox mu 0.1->1", side{algo: "fedprox", params: algos.Params{Mu: 0.1}}, side{algo: "fedprox", params: algos.Params{Mu: 1}}},
		{"moon tau 0.5->5", side{algo: "moon", params: algos.Params{Tau: 0.5}}, side{algo: "moon", params: algos.Params{Tau: 5}}},
		{"fedgkd gamma 0.2->2", side{algo: "fedgkd", params: algos.Params{Mu: 0.2}}, side{algo: "fedgkd", params: algos.Params{Mu: 2}}},
	}
	build := func(t *testing.T, s side) core.RunSpec {
		t.Helper()
		name := s.algo
		if name == "" {
			name = "fedtrip"
		}
		algo, err := algos.New(name, s.params)
		if err != nil {
			t.Fatal(err)
		}
		sp := core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 6, ClientsPerRound: 3, BatchSize: 20, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
			},
			Runtime: core.RuntimeAsync, Concurrency: 4, BufferSize: 2,
			Latency: core.ExponentialLatency{Mean: 2},
		}
		if s.policy != "" {
			if sp.Policy, err = core.ParsePolicy(s.policy); err != nil {
				t.Fatal(err)
			}
		}
		if s.serverLR != "" {
			if sp.Policy.ServerLR, err = core.ParseLRSchedule(s.serverLR); err != nil {
				t.Fatal(err)
			}
		}
		return sp
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rs, err := core.NewRunState(build(t, row.a))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := rs.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			rs.Close()
			_, err = core.Resume(bytes.NewReader(buf.Bytes()), core.ResumeSpec{Spec: build(t, row.b)})
			if err == nil {
				t.Fatal("the changed spec resumed the snapshot")
			}
			if !strings.Contains(err.Error(), "snapshot was taken from a different run") ||
				!strings.Contains(err.Error(), "snapshot:") || !strings.Contains(err.Error(), "spec:") {
				t.Fatalf("wrong error: %v", err)
			}
			// The unchanged spec still resumes it.
			rs2, err := core.Resume(bytes.NewReader(buf.Bytes()), core.ResumeSpec{Spec: build(t, row.a)})
			if err != nil {
				t.Fatalf("the same spec was refused: %v", err)
			}
			rs2.Close()
		})
	}
}
