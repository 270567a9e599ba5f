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

// TestUploadPoolPeak pins the parameter pool's high-water mark over fixed
// runs, and the pool's balance at Close (ROADMAP item 8): every buffer
// checked out is back in the pool or held by a job still queued. The runs
// evaluate only at the end, and a job trains only when it comes due, with
// the loop waiting on the shards while they train, so every checkout and
// return happens in one order whatever the scheduler does. The table is
// literal: a changed peak is a real change in how many |w|-sized vectors
// a run holds at once.
func TestUploadPoolPeak(t *testing.T) {
	cases := []struct {
		name, transport, policy string
		// async runs twelve jobs in flight and a buffer of six on one
		// shard, with exp:2 latency and tiered links; devices prices them
		// by a tiered device fleet instead, on two shards.
		async, devices bool
		// peak is the most float64 buffers checked out at once; held is
		// how many are still out after Close; peak32 and held32 are the
		// same for the float32 vectors narrowed uploads are held in. A
		// float32 version is not one of them: it is blocks of its run's
		// store (Footprint.Versions32).
		peak, held, peak32, held32 int
	}{
		// Twelve jobs in flight and a buffer of six. A sparse upload costs
		// a patch and pins the version it trained from, which its
		// neighbours mostly share, in flight and in the policy buffer
		// until the round that merges it is done. The float32 downlink
		// makes each version its float32 image, in blocks of the run's
		// store, and the training transient is the one float64 buffer.
		// Held as float32 vectors the six versions of the peak made the
		// float32 peak 6, and 5 were held at Close; held as float64
		// copies the peak was 7 and 5 were held; rebuilt dense at its
		// arrival an upload made the peak 12; held dense all the way, 18.
		// A job waiting to train holds its version as a trained sparse
		// one does, so training when due moved neither count.
		{"async topk:0.01+ef tiered", "topk:0.01+ef", "", true, false, 1, 0, 0, 0},
		// The same fleet over a float32 uplink, merged by the median:
		// every upload is float32-exact and far from the global, so it is
		// held narrowed from its training to the median that reads it;
		// the version jobs train from is its float32 image, in blocks,
		// and the float64 buffer is the training transient (2 and 17 with
		// the version a float64 copy). The float32 peak is the narrowed
		// uploads alone: 7, and 1 is held at Close. Trained at dispatch,
		// the twelve in flight held theirs too: with the versions float32
		// vectors, the peak was 18 and 11 were held at Close, against 12
		// and 6 once a job trained when it came due.
		{"async f32 median tiered", "f32", "median", true, false, 1, 0, 7, 1},
		// Four lock-step uploads that differ from the global nearly
		// everywhere are float32-exact and held narrowed; the training
		// transient, then the evaluation's copy, is the one float64
		// buffer (5 when the uploads were held dense).
		{"sync f32", "f32", "", false, false, 1, 0, 4, 0},
		// Without a transport, oneSampleRun's lazy fleet (four
		// aggregations of six over 48 clients, so every participation
		// is recorded and pins its version): an upload that changed few
		// enough entries of its version is a bitmap patch, compared
		// where training left it, its values in chunks carved from
		// float64 vectors of the pool, 38 to a vector. The peak is the
		// versions the recipes pin, the uploads that stayed dense (a
		// returner's changes every entry) and the vectors the patches'
		// chunks are carved from. At Close the four versions, one dense
		// upload and the five vectors the ten queued patches' chunks are
		// packed into are held. Held dense, the peak was 22 and 15 were
		// held; trained at dispatch, the peak was 18 and 10 were held,
		// against 10 and 4 now that a job trains when it comes due.
		{"async none lazy", "", "", true, false, 10, 4, 0, 0},
		// uploadRun's fleet without a transport, twelve jobs in flight
		// priced by tiered devices and merged six at a time, on two shards
		// (48 merges over 16 clients: no recipe, every upload dense). Each
		// job trained at its dispatch held its upload until it arrived, so
		// the peak was Concurrency + BufferSize: 18 here (22 with sixteen
		// in flight, 20 with a buffer of eight), and 11 were held at
		// Close. A job now trains when its arrival comes due, and one that
		// waits holds only its version, which its neighbours share: the
		// peak is 12 (12 on one shard too, 13 with sixteen in flight or a
		// buffer of eight), and 4 are held at Close.
		{"async none devices", "", "", true, true, 12, 4, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := uploadRun(t, tc.transport)
			if tc.transport == "" && !tc.devices {
				sp = oneSampleRun(t, "")
				sp.Rounds = 4
			}
			sp.EvalEvery, sp.Shards = 100, 1
			if tc.async {
				sp.Runtime = core.RuntimeAsync
				sp.Concurrency = 12
				sp.BufferSize = 6
				sp.Latency = mustFleet(core.ParseLatency("exp:2"))
				sp.Network = mustFleet(core.ParseNetDist("tiered"))
			}
			if tc.devices {
				sp.Latency, sp.Network = core.FleetDist{}, core.FleetDist{}
				sp.Devices = mustFleet(core.ParseDeviceDist("tiered"))
				sp.FlopRate = 1e6
				sp.Shards = 2
			}
			if tc.policy != "" {
				p, err := core.ParsePolicy(tc.policy)
				if err != nil {
					t.Fatal(err)
				}
				sp.Policy = p
			}
			rs, err := core.NewRunState(sp)
			if err != nil {
				t.Fatal(err)
			}
			core.ResetPoolPeak()
			core.ResetNarrowPeak()
			base, _ := core.PoolCheckouts()
			base32, _ := core.NarrowCheckouts()
			if _, err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			if err := rs.CheckChunks(); err != nil {
				t.Error(err)
			}
			out, peak := core.PoolCheckouts()
			out32, peak32 := core.NarrowCheckouts()
			if got := peak - base; got != tc.peak {
				t.Errorf("pool peak %d buffers, pinned %d", got, tc.peak)
			}
			if got := peak32 - base32; got != tc.peak32 {
				t.Errorf("float32 pool peak %d buffers, pinned %d", got, tc.peak32)
			}
			queued, queued32, err := rs.QueuedBuffers()
			if err != nil {
				t.Fatal(err)
			}
			if got := out - base; got != tc.held || got != queued {
				t.Errorf("%d buffers still out after Close, pinned %d; the queued jobs hold %d", got, tc.held, queued)
			}
			if got := out32 - base32; got != tc.held32 || got != queued32 {
				t.Errorf("%d float32 buffers still out after Close, pinned %d; the queued jobs hold %d", got, tc.held32, queued32)
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
		{"resumed lazy async none churn+drop", "async", "", "exp:2", "markov:20,5+drop:1,0.4,0", 4, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() core.RunSpec {
				churn, err := core.ParseChurn(tc.churn)
				if err != nil {
					t.Fatal(err)
				}
				sp := uploadRun(t, tc.transport)
				if tc.transport == "" {
					// Bitmap patches need sparse uploads: one sample, one step.
					sp = oneSampleRun(t, "")
				}
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
			base32, _ := core.NarrowCheckouts()
			// balanced fails unless every buffer of either pool checked
			// out since base is held by one of rs's queued jobs or
			// recipes, and every chunk of its store by a queued job.
			balanced := func(rs *core.RunState) {
				t.Helper()
				out, _ := core.PoolCheckouts()
				out32, _ := core.NarrowCheckouts()
				queued, queued32, err := rs.QueuedBuffers()
				if err != nil {
					t.Fatal(err)
				}
				if out-base != queued || out32-base32 != queued32 {
					t.Fatalf("%d+%d float64+float32 buffers still out after Close; the queued jobs and recipes hold %d+%d", out-base, out32-base32, queued, queued32)
				}
				if err := rs.CheckChunks(); err != nil {
					t.Fatal(err)
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
				base32, _ = core.NarrowCheckouts()
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

// widenCheckAlgo is FedTrip with an Aggregator override that records
// whether every update reached it dense, and averages them unweighted.
type widenCheckAlgo struct {
	*core.FedTrip
	updates, short int
}

func (a *widenCheckAlgo) Aggregate(_ int, global []float64, updates []core.Update) []float64 {
	next := make([]float64, len(global))
	for _, u := range updates {
		a.updates++
		if len(u.Params) != len(global) {
			a.short++
			continue
		}
		for i, v := range u.Params {
			next[i] += v / float64(len(updates))
		}
	}
	return next
}

// An Aggregator method reads Update.Params, so the lock-step merge hands
// it every update widened, whichever form the uplink left it in: a patch
// (topk:0.01+ef) or a float32 narrowing (f32).
func TestAggregatorGetsWidenedUploads(t *testing.T) {
	for _, tr := range []string{"topk:0.01+ef", "f32"} {
		t.Run(tr, func(t *testing.T) {
			sp := uploadRun(t, tr)
			algo := &widenCheckAlgo{FedTrip: core.NewFedTrip(0.4)}
			sp.Algo = algo
			if _, err := core.Start(sp); err != nil {
				t.Fatal(err)
			}
			if algo.updates != sp.Rounds*sp.ClientsPerRound || algo.short != 0 {
				t.Fatalf("%d of %d updates reached Aggregate without a dense vector", algo.short, algo.updates)
			}
		})
	}
}

// A resumed run holds its queued uploads as the uninterrupted run holds
// them: on the async f32 fleet (10 in flight, a buffer of 3), snapshotted
// after four aggregations, every queued upload is float32-exact, and
// both runs hold the nine as float32 vectors and no float64 one. The
// resumed run finishes on the uninterrupted run's digest.
func TestResumedUploadsStayNarrow(t *testing.T) {
	build := func() core.RunSpec {
		sp := uploadRun(t, "f32")
		sp.Runtime = core.RuntimeAsync
		sp.Concurrency, sp.BufferSize = 10, 3
		sp.Latency = mustFleet(core.ParseLatency("exp:2"))
		return sp
	}
	full, err := core.Start(build())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.NewRunState(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	rs.Close()
	held := func(rs *core.RunState) [2]int {
		t.Helper()
		wide, narrow, err := rs.QueuedBuffers()
		if err != nil {
			t.Fatal(err)
		}
		return [2]int{wide, narrow}
	}
	want := held(rs)
	if want != [2]int{0, 9} {
		t.Fatalf("the uninterrupted run's queued jobs hold %d float64 and %d float32 vectors, want 0 and 9", want[0], want[1])
	}
	resumed, err := core.Resume(bytes.NewReader(stream), core.ResumeSpec{Spec: build()})
	if err != nil {
		t.Fatal(err)
	}
	resumed.Close()
	if got := held(resumed); got != want {
		t.Fatalf("the resumed run's queued jobs hold %d float64 and %d float32 vectors, the uninterrupted run's %d and %d", got[0], got[1], want[0], want[1])
	}
	if resumed, err = core.Resume(bytes.NewReader(stream), core.ResumeSpec{Spec: build()}); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != full.Digest() {
		t.Fatalf("resumed digest %s, the uninterrupted run's %s", res.Digest(), full.Digest())
	}
}
