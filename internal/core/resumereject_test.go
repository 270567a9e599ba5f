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
// which drop every argument. (FedDyn's alpha and SlowMo's beta are not
// rows: those methods keep server-side state, so Snapshot refuses them
// outright; TestServerSideMethodsFingerprintTheirSettings has them.)
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
		{"fedtrip mu 0.1->5", side{algo: "fedtrip:0.1"}, side{algo: "fedtrip:5"}},
		{"fedprox mu 0.1->1", side{algo: "fedprox:0.1"}, side{algo: "fedprox:1"}},
		{"moon tau 0.5->5", side{algo: "moon:1,0.5"}, side{algo: "moon:1,5"}},
		{"fedgkd gamma 0.2->2", side{algo: "fedgkd:0.2"}, side{algo: "fedgkd:2"}},
	}
	build := func(t *testing.T, s side) core.RunSpec {
		t.Helper()
		text := s.algo
		if text == "" {
			text = "fedtrip"
		}
		algo, err := algos.Parse(text)
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
			Latency: mustFleet(core.ParseLatency("exp:2")),
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

// TestServerSideMethodsFingerprintTheirSettings: FedDyn and SlowMo keep
// server-side state, so Snapshot refuses them — but their settings still
// reach the fingerprint, through the method text they print. Before they
// printed any, feddyn:1 and feddyn:0.1 rendered alike ("feddyn") and
// stamped the same fingerprint.
func TestServerSideMethodsFingerprintTheirSettings(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 120, Test: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y, train.Classes, 4, 30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T, method string) core.RunSpec {
		t.Helper()
		algo, err := algos.Parse(method)
		if err != nil {
			t.Fatal(err)
		}
		return core.RunSpec{Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
			Train: train, Test: test, Parts: parts,
			Rounds: 2, ClientsPerRound: 2, BatchSize: 20, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
		}}
	}
	for _, row := range [][2]string{
		{"feddyn:0.1", "feddyn:1"},
		{"slowmo:0.5,1", "slowmo:0.9,1"},
		{"slowmo:0.5,1", "slowmo:0.5,0.5"},
	} {
		t.Run(row[0]+"->"+row[1], func(t *testing.T) {
			a, b := build(t, row[0]), build(t, row[1])
			if a.Fingerprint(0) == b.Fingerprint(0) {
				t.Fatalf("%s and %s stamp the same fingerprint %q", row[0], row[1], a.Fingerprint(0))
			}
			rs, err := core.NewRunState(a)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if _, err := rs.Step(); err != nil {
				t.Fatal(err)
			}
			if err := rs.Snapshot(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "server-side") {
				t.Fatalf("snapshot of a %s run: err %v, want a server-side state refusal", row[0], err)
			}
		})
	}
}
