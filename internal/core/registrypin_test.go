package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// registryFleet is one run over a 48-client fleet that dispatches a
// minority of its clients before its snapshot boundary (round snapAt),
// so the stream holds clients that have trained beside many that never
// have. Each case exercises one path a client's state is derived on:
// churn with a permanent mass drop, a float32 uplink behind the
// lock-step gate, label-flipping clients behind the barrier, and noise
// clients, each with a private stream, among crashing ones.
type registryFleet struct {
	name      string
	runtime   core.Runtime
	transport string
	faults    string
	churn     string
	rounds    int
	snapAt    int
}

var registryFleets = []registryFleet{
	{name: "async-markov-drop", runtime: core.RuntimeAsync, churn: "markov:30,8+drop:4,0.5,0", rounds: 10, snapAt: 5},
	{name: "sync-f32", runtime: core.RuntimeSync, transport: "f32", rounds: 6, snapAt: 3},
	{name: "barrier-labelflip", runtime: core.RuntimeBarrier, faults: "byz:0.2,labelflip", rounds: 6, snapAt: 3},
	{name: "async-noise-crash", runtime: core.RuntimeAsync, faults: "byz:0.1,noise:2+crash:0.05", rounds: 10, snapAt: 5},
}

// registryData is the fleets' corpus: eight samples per client.
func registryData(t *testing.T) (train, test *data.Dataset, parts [][]int) {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 384, Test: 100, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	parts, err = partition.Partition(partition.IID(), train.Y, train.Classes, 48, 8, rand.New(rand.NewSource(49)))
	if err != nil {
		t.Fatal(err)
	}
	return train, test, parts
}

// spec builds the case's run.
func (f registryFleet) spec(t *testing.T, train, test *data.Dataset, parts [][]int) core.RunSpec {
	t.Helper()
	tr, err := comm.ParseTransport(f.transport)
	if err != nil {
		t.Fatal(err)
	}
	sp := core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
			Train: train, Test: test, Parts: parts,
			Rounds: f.rounds, ClientsPerRound: 4,
			BatchSize: 4, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: core.NewFedTrip(0.4), Seed: 5, Shards: 2,
			Transport: tr,
		},
		Runtime: f.runtime,
	}
	if f.runtime != core.RuntimeSync {
		sp.Latency = mustFleet(core.ParseLatency("exp:2"))
	}
	if f.runtime == core.RuntimeAsync {
		sp.Concurrency, sp.BufferSize = 4, 2
	}
	if f.churn != "" {
		if sp.Churn, err = core.ParseChurn(f.churn); err != nil {
			t.Fatal(err)
		}
	}
	if f.faults != "" {
		if sp.Faults, err = core.ParseFaults(f.faults); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// registryPin is one case's run: the uninterrupted digest, and its
// snapshot stream at the boundary — its length on every architecture,
// and on amd64 its SHA-256 and the state it resumes to (StateDigest).
type registryPin struct {
	digest string
	length int
	sha256 string
	state  string
}

var registryPins = map[string]registryPin{
	"async-markov-drop": {"c9f6ee84a700f59b", 1436675, "cbf406b4c73ed71cb35cd65156617fe80b092338b0abe6b01afddc663e0ba25d", "e2129e6ecb673c1e"},
	"sync-f32":          {"00767dea774696d3", 640180, "5329c21d637cc85e95cd5721a1f74e0b3a68ecace513100e7f66b2ac7e0dbeeb", "822989427a7ac73d"},
	"barrier-labelflip": {"7429afcbec527774", 640260, "b97744ef7caa8fbf1c7e46eb3238945896ce832a422ec213f3ca7b64b56211b7", "70c0ab4518b7d0bf"},
	"async-noise-crash": {"d18ae1ec6758f912", 1436393, "0b1ca4e0cc717f4a1b2d0c6f1df90408527aa52788d8f4eb74485b6d4c9dab4c", "1ad9abf6c1c336b4"},
}

// snapshotAt steps a run of spec k times and returns its snapshot stream;
// prepare runs on the fresh run before its first step.
func snapshotAt(t *testing.T, spec core.RunSpec, k int, prepare func(*core.RunState)) []byte {
	t.Helper()
	rs, err := core.NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if prepare != nil {
		prepare(rs)
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
	return buf.Bytes()
}

// TestRegistryStreamsPinned pins each registry fleet's digest and its
// snapshot stream at the boundary byte for byte, so a change to how the
// runtime builds, walks or resumes its clients that moves a value or a
// byte is seen.
func TestRegistryStreamsPinned(t *testing.T) {
	train, test, parts := registryData(t)
	for _, f := range registryFleets {
		t.Run(f.name, func(t *testing.T) {
			spec := func() core.RunSpec { return f.spec(t, train, test, parts) }
			full, err := core.Start(spec())
			if err != nil {
				t.Fatal(err)
			}
			stream := snapshotAt(t, spec(), f.snapAt, nil)
			state, err := core.StateDigest(stream, spec())
			if err != nil {
				t.Fatal(err)
			}
			got := registryPin{full.Digest(), len(stream), fmt.Sprintf("%x", sha256.Sum256(stream)), state}
			pin, ok := registryPins[f.name]
			if !ok {
				t.Fatalf("no pin for %q: %#v", f.name, got)
			}
			if got.length != pin.length {
				t.Errorf("snapshot stream is %d bytes, pinned %d", got.length, pin.length)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			if got.digest != pin.digest {
				t.Errorf("digest %s, pinned %s", got.digest, pin.digest)
			}
			if got.sha256 != pin.sha256 {
				t.Errorf("snapshot stream has sha256 %s, pinned %s", got.sha256, pin.sha256)
			}
			if got.state != pin.state {
				t.Errorf("the stream resumes to state %s, pinned %s", got.state, pin.state)
			}
		})
	}
}
