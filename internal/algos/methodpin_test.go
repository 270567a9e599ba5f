package algos_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// TestMethodDigestsPinned pins the absolute arithmetic of every registry
// method: one small MLP run each on the lock-step runtime, plus the two
// methods that read a client's previous upload (FedTrip's w_hist, MOON's
// previous-local model) on the async runtime under a straggler latency,
// where participation gaps vary and stale clients return, plus four runs
// on conv models (runConv). Each result digest is compared with a literal
// taken before per-client state moved from the runtime into the methods;
// the conv rows before input gradients moved into activation buffers. The
// digests are amd64 values (like core's stream state digests).
func TestMethodDigestsPinned(t *testing.T) {
	sync := map[string]string{
		"fedtrip":  "89ac4560cb3a6c42",
		"fedavg":   "291154d2689e88ea",
		"fedprox":  "49bf1f07cd3fe4eb",
		"slowmo":   "82d12e50e4ed22a8",
		"moon":     "7531b8df78b3fdad",
		"feddyn":   "71e3eebd4dbbac75",
		"scaffold": "84f61150632206a0",
		"feddane":  "62862bc2e340d0c6",
		"mimelite": "a3f74e6d2cb1361d",
		"fedgkd":   "1c1a305531eff4da",
		"fednova":  "745a7cd2c733e29a",
	}
	async := map[string]string{
		"fedtrip": "8229b5f19cbee8bd",
		"moon":    "4a252595e35e637e",
	}
	if len(sync) != len(algos.Names()) {
		t.Fatalf("%d sync rows for %d registry methods", len(sync), len(algos.Names()))
	}

	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 240, Test: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 12, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, name string, rt core.Runtime) string {
		algo, err := algos.New(name, algos.Params{})
		if err != nil {
			t.Fatal(err)
		}
		sp := core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 8, ClientsPerRound: 4, BatchSize: 10, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
			},
			Runtime: rt,
		}
		if rt == core.RuntimeAsync {
			sp.Rounds = 12
			sp.Latency = mustFleet(core.ParseLatency("straggler:1,4,3"))
			sp.Concurrency, sp.BufferSize = 8, 2
		}
		res, err := core.Start(sp)
		if err != nil {
			t.Fatal(err)
		}
		if stale := res.MeanStalenessByRound; rt == core.RuntimeAsync && slices.Max(stale) == 0 {
			t.Error("no merged update was stale: the run does not exercise varying participation gaps")
		}
		return res.Digest()
	}
	check := func(rt core.Runtime, want map[string]string) {
		for _, name := range algos.Names() {
			digest, ok := want[name]
			if !ok {
				continue
			}
			t.Run(string(rt)+"/"+name, func(t *testing.T) {
				got := run(t, name, rt)
				if runtime.GOARCH != "amd64" {
					t.Skipf("digest %s not compared: the literals are amd64 values", got)
				}
				if got != digest {
					t.Errorf("digest %s, want %s: the method's trajectory moved", got, digest)
				}
			})
		}
	}
	check(core.RuntimeSync, sync)
	check(core.RuntimeAsync, async)

	// The conv rows run backward through every layer kind: MOON adds a
	// feature gradient at the head, FedDANE's full gradient runs backward
	// after an evaluation-mode forward, and AlexNet draws dropout masks.
	for _, c := range []struct {
		arch   nn.Arch
		name   string
		digest string
	}{
		{nn.ArchCNN, "fedtrip", "8b1c8e88a121b9ac"},
		{nn.ArchCNN, "moon", "df9e85822466030f"},
		{nn.ArchAlexNet, "fedtrip", "bb6f9cbf2269fe33"},
		{nn.ArchCNN, "feddane", "c564b21fbc2ac635"},
	} {
		t.Run(string(c.arch)+"/"+c.name, func(t *testing.T) {
			got := runConv(t, c.arch, c.name)
			if runtime.GOARCH != "amd64" {
				t.Skipf("digest %s not compared: the literals are amd64 values", got)
			}
			if got != c.digest {
				t.Errorf("digest %s, want %s: the method's trajectory moved", got, c.digest)
			}
		})
	}
}

// runConv runs method name for three lock-step rounds on a small conv
// model of arch and returns the result digest.
func runConv(t *testing.T, arch nn.Arch, name string) string {
	spec := nn.ModelSpec{Arch: arch, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25}
	kind := data.KindMNIST
	if arch == nn.ArchAlexNet {
		spec = nn.ModelSpec{Arch: arch, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.1}
		kind = data.KindCIFAR
	}
	train, test, err := data.Generate(data.Spec{Kind: kind, Train: 120, Test: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	algo, err := algos.New(name, algos.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Start(core.RunSpec{Config: core.Config{
		Model: spec, Train: train, Test: test, Parts: parts,
		Rounds: 3, ClientsPerRound: 3, BatchSize: 10, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}
