package runserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/trace"
)

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d core.FleetDist, err error) core.FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}

func testSpec(t *testing.T, rounds int) core.RunSpec {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 60, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{
		Config: core.Config{
			Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
			Train:           train,
			Test:            test,
			Parts:           parts,
			Rounds:          rounds,
			ClientsPerRound: 3,
			BatchSize:       20,
			LocalEpochs:     1,
			LR:              0.01,
			Momentum:        0.9,
			Algo:            core.NewFedTrip(0.4),
			Seed:            1,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(core.ParseLatency("exp:2")),
	}
}

// TestServeLiveRun drives a run behind the HTTP surface: /status and
// /metrics report live progress, /checkpoint mid-run yields a snapshot
// that resumes to the exact same trajectory as an uninterrupted run.
func TestServeLiveRun(t *testing.T) {
	spec := testSpec(t, 8)
	full, err := core.Start(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The trace hook only observes updates, so the served run keeps the
	// exact trajectory (and snapshot fingerprint) of the plain run.
	served := spec
	collector := trace.NewCollector()
	served.OnUpdates = collector.Hook()
	rs, err := core.NewRunState(served)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctrl := New(rs, collector)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	type runOut struct {
		res *core.Result
		err error
	}
	out := make(chan runOut, 1)
	go func() {
		res, err := ctrl.Run(context.Background())
		out <- runOut{res, err}
	}()

	// Poll /status until at least one round has completed.
	var st Status
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Round >= 1 || st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Algorithm != "fedtrip" || st.Runtime != "async" || st.TotalRounds != 8 {
		t.Fatalf("status %+v", st)
	}

	// /checkpoint mid-run (or at completion; either boundary must work).
	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/checkpoint: %d %s", resp.StatusCode, ckpt)
	}

	// /metrics decodes as a Result.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var live core.Result
	err = json.NewDecoder(resp.Body).Decode(&live)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if live.Algorithm != "fedtrip" {
		t.Fatalf("live metrics algorithm %q", live.Algorithm)
	}

	// /trace serves whole-round CSV.
	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "round,") {
		t.Fatalf("trace CSV starts %q", string(csv[:min(len(csv), 40)]))
	}

	r := <-out
	if r.err != nil {
		t.Fatalf("run: %v", r.err)
	}
	if r.res.Digest() != full.Digest() {
		t.Fatal("served run diverged from plain Start")
	}

	// The mid-run checkpoint resumes to the identical trajectory.
	rs2, err := core.Resume(bytes.NewReader(ckpt), core.ResumeSpec{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := rs2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Digest() != full.Digest() {
		t.Fatalf("resumed digest %s, want %s", resumed.Digest(), full.Digest())
	}
}

// TestGracefulShutdown cancels the loop mid-run, checkpoints the stopped
// run (the SIGTERM path), and proves the resumed process finishes with a
// trajectory bit-for-bit equal to the uninterrupted run.
func TestGracefulShutdown(t *testing.T) {
	spec := testSpec(t, 8)
	full, err := core.Start(spec)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := core.NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// Advance a few rounds, then cancel before the loop starts.
	for i := 0; i < 3; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := New(rs, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctrl.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v", err)
	}
	st := ctrl.Status()
	if st.Round != 3 || st.Done {
		t.Fatalf("status after cancel %+v", st)
	}

	var ckpt bytes.Buffer
	if err := ctrl.Checkpoint(&ckpt); err != nil {
		t.Fatalf("checkpoint after cancel: %v", err)
	}
	rs2, err := core.Resume(bytes.NewReader(ckpt.Bytes()), core.ResumeSpec{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := rs2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Digest() != full.Digest() {
		t.Fatalf("resumed digest %s, want %s", resumed.Digest(), full.Digest())
	}
}
