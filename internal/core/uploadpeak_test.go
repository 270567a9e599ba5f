package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// uploadRun is the small fleet both tests run: 16 clients on a
// quarter-width MLP, four per lock-step round, eight rounds, moving
// models through the transport spec tr.
func uploadRun(t *testing.T, tr string) core.RunSpec {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 16, 25, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	transport, err := comm.ParseTransport(tr)
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{Config: core.Config{
		Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
		Train: train, Test: test, Parts: parts,
		Rounds: 8, ClientsPerRound: 4,
		BatchSize: 20, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Algo: core.NewFedTrip(0.4), Seed: 1,
		Transport: transport,
	}}
}

// TestUploadPoolPeak pins the parameter pool's high-water mark over two
// fixed runs, and the pool's balance at Close (ROADMAP item 8): every
// buffer checked out is back in the pool or held by a job still queued.
// Both runs train on one shard, evaluate only at the end and (the async
// one) join every burst at dispatch, so every checkout and return happens
// in one order whatever the scheduler does. The table is literal: a
// changed peak is a real change in how many |w|-sized vectors a run holds
// at once.
func TestUploadPoolPeak(t *testing.T) {
	cases := []struct {
		name, transport string
		async           bool
		// peak is the most buffers checked out at once; held is how many
		// are still out after Close.
		peak, held int
	}{
		// Twelve jobs in flight and a buffer of six. An in-flight sparse
		// upload costs a patch and pins the version it trained from,
		// which its neighbours mostly share; were each held dense, the
		// peak would be 18 and 11 buffers would stay with the queued jobs.
		{"async topk:0.01+ef tiered", "topk:0.01+ef", true, 12, 5},
		// Four lock-step uploads that differ from the global nearly
		// everywhere stay dense; with the evaluation's copy, 5 as before.
		{"sync f32", "f32", false, 5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := uploadRun(t, tc.transport)
			sp.EvalEvery, sp.Shards = 100, 1
			if tc.async {
				sp.Runtime = core.RuntimeAsync
				sp.Concurrency = 12
				sp.BufferSize = 6
				sp.Latency = mustFleet(core.ParseLatency("exp:2"))
				sp.Network = mustFleet(core.ParseNetDist("tiered"))
			}
			rs, err := core.NewRunState(sp)
			if err != nil {
				t.Fatal(err)
			}
			core.ResetPoolPeak()
			base, _ := core.PoolCheckouts()
			if _, err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			out, peak := core.PoolCheckouts()
			if got := peak - base; got != tc.peak {
				t.Errorf("pool peak %d buffers, pinned %d", got, tc.peak)
			}
			queued, err := rs.QueuedBuffers()
			if err != nil {
				t.Fatal(err)
			}
			if got := out - base; got != tc.held || got != queued {
				t.Errorf("%d buffers still out after Close, pinned %d; the queued jobs hold %d", got, tc.held, queued)
			}
		})
	}
}

// The pool's balance at Close, where jobs really overlap the loop: uploads
// held sparse and dense, in flight and buffered, on several shards, with
// in-flight sparse jobs voided by a permanent mass drop and a snapshot
// taken mid-run that the run then continues from — or, in the lazy
// fleets (Rounds × m < N), that a fresh run resumes from, its round
// images restored into pooled vectors. Whatever the shards' timing,
// after Close every buffer checked out is back in the pool or held by a
// job still queued or a recipe, and the continued run is the
// uninterrupted one.
func TestPoolBalancesAtClose(t *testing.T) {
	cases := []struct {
		name, runtime, transport, latency, churn string
		// rounds (0: uploadRun's 8) and the round the snapshot is taken
		// after; resume continues from the stream in a fresh run.
		rounds, snapAt int
		resume         bool
	}{
		{"async topk churn+drop", "async", "topk:0.01+ef", "straggler:1,10,3", "markov:20,5+drop:6,0.4,0", 0, 4, false},
		{"async randk", "async", "randk:0.05", "exp:2", "", 0, 4, false},
		{"async q8", "async", "q8+ef", "exp:2", "", 0, 4, false},
		{"barrier randk churn+drop", "barrier", "randk:0.05", "straggler:1,10,3", "markov:20,5+drop:6,0.4,0", 0, 4, false},
		{"resumed lazy async f32", "async", "f32", "exp:2", "", 5, 2, true},
		{"resumed lazy barrier topk churn", "barrier", "topk:0.01+ef", "straggler:1,10,3", "markov:20,5", 3, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.RunSpec {
				churn, err := core.ParseChurn(tc.churn)
				if err != nil {
					t.Fatal(err)
				}
				sp := uploadRun(t, tc.transport)
				sp.Shards = 3
				sp.Runtime = core.Runtime(tc.runtime)
				sp.Latency = mustFleet(core.ParseLatency(tc.latency))
				sp.Churn = churn
				if tc.runtime == "async" {
					sp.Concurrency, sp.BufferSize = 10, 3
				}
				if tc.rounds > 0 {
					sp.Rounds = tc.rounds
				}
				return sp
			}
			full, err := core.Start(build())
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(tc.churn, "drop") && full.DroppedUpdates == 0 {
				t.Fatal("the mass drop voided no in-flight update; the case checks nothing of it")
			}
			base, _ := core.PoolCheckouts()
			// balanced fails unless every buffer checked out since base is
			// held by one of rs's queued jobs or recipes.
			balanced := func(rs *core.RunState) {
				t.Helper()
				out, _ := core.PoolCheckouts()
				queued, err := rs.QueuedBuffers()
				if err != nil {
					t.Fatal(err)
				}
				if out-base != queued {
					t.Fatalf("%d buffers still out after Close; the queued jobs and recipes hold %d", out-base, queued)
				}
			}
			rs, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.snapAt; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := rs.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if tc.resume {
				rs.Close()
				balanced(rs)
				base, _ = core.PoolCheckouts()
				if rs, err = core.Resume(&buf, core.ResumeSpec{Spec: build()}); err != nil {
					t.Fatal(err)
				}
				lazy := 0
				for _, c := range rs.Server().Clients() {
					if c.Lazy() {
						lazy++
					}
				}
				if lazy == 0 {
					t.Fatal("the resumed run holds no recipe; the case checks nothing of its images")
				}
			}
			cont, err := rs.Run()
			if err != nil {
				t.Fatal(err)
			}
			if cont.Digest() != full.Digest() {
				t.Fatalf("snapshot-and-continue digest %s, the uninterrupted run %s", cont.Digest(), full.Digest())
			}
			balanced(rs)
		})
	}
}
