package core

import (
	"bytes"
	"repro/internal/prng"
	"runtime"
	"testing"
)

func TestVecPoolGetPut(t *testing.T) {
	p := &vecPool[float64]{free: map[int][][]float64{}}
	a := p.get(8)
	if len(a) != 8 {
		t.Fatalf("get(8) returned len %d", len(a))
	}
	p.put(a)
	b := p.get(8)
	if &b[0] != &a[0] {
		t.Fatal("pool did not reuse the returned buffer")
	}
	if c := p.get(8); &c[0] == &b[0] {
		t.Fatal("pool handed the same buffer out twice")
	}
	if d := p.get(16); len(d) != 16 {
		t.Fatalf("size-keyed get broken: len %d", len(d))
	}
	p.put(nil) // must be a no-op
}

func TestVecPoolGetCopy(t *testing.T) {
	p := &vecPool[float64]{free: map[int][][]float64{}}
	src := []float64{1, 2, 3}
	c := p.getCopy(src)
	if &c[0] == &src[0] {
		t.Fatal("getCopy aliased the source")
	}
	src[0] = 99
	if c[0] != 1 {
		t.Fatal("getCopy did not copy")
	}
}

// TestRandPermIntoMatchesRandPerm pins the drop-in property: the same
// generator state yields the same permutation AND leaves the stream in
// the same state as prng.Rand.Perm, so swapping it in never shifts a
// trajectory.
func TestRandPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		r1 := prng.New(42)
		r2 := prng.New(42)
		want := r1.Perm(n)
		got := randPermInto(r2, nil, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d != %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d: %d != %d", n, i, got[i], want[i])
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("n=%d: stream state diverged after permutation", n)
		}
	}
	// Reuse: a large-enough buffer must be reused in place.
	buf := make([]int, 10)
	out := randPermInto(prng.New(1), buf, 5)
	if &out[0] != &buf[0] {
		t.Fatal("randPermInto did not reuse the provided buffer")
	}
}

// TestUpdateBuffersNotAliasedSyncRun proves the checkout/return cycle of
// Update.Params end to end on the synchronous runtime: within a round no
// two uploads share a buffer, every upload's contents are exactly the
// uploading client's historical model (corruption from a mis-recycled
// buffer would break this), and buffers really are recycled across
// rounds.
func TestUpdateBuffersNotAliasedSyncRun(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 4
	cfg.EvalEvery = 100
	var s *Server
	seen := map[*float64]int{} // first element pointer -> times seen
	cfg.OnUpdates = func(round int, globalBefore []float64, updates []Update) {
		ptrs := map[*float64]bool{}
		for _, u := range updates {
			p := &u.Params[0]
			if ptrs[p] {
				t.Errorf("round %d: two in-flight updates share one buffer", round)
			}
			ptrs[p] = true
			seen[p]++
			hist := s.Clients()[u.ClientID].State(1) // FedTrip's w_hist
			for i := range u.Params {
				if u.Params[i] != hist[i] {
					t.Fatalf("round %d: client %d upload corrupted at %d (%v != %v)",
						round, u.ClientID, i, u.Params[i], hist[i])
				}
			}
		}
	}
	rs, err := NewRunState(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s = rs.Server()
	if _, err := rs.Run(); err != nil {
		t.Fatal(err)
	}
	reused := false
	for _, times := range seen {
		if times > 1 {
			reused = true
		}
	}
	if !reused {
		t.Error("no upload buffer was ever recycled across rounds — pool inactive")
	}
}

// TestUpdateBuffersNotAliasedAsyncRun is the concurrent variant (run
// under -race in CI): many clients in flight at once on the buffered
// async runtime, with every merge checked for buffer sharing.
func TestUpdateBuffersNotAliasedAsyncRun(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 6
	cfg.EvalEvery = 100
	cfg.OnUpdates = func(round int, globalBefore []float64, updates []Update) {
		ptrs := map[*float64]bool{}
		for _, u := range updates {
			p := &u.Params[0]
			if ptrs[p] {
				t.Errorf("agg %d: two buffered updates share one buffer", round)
			}
			ptrs[p] = true
		}
	}
	res, err := Start(RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("uniform:1,3")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("expected 6 aggregations, got %d", res.Rounds)
	}
}

// TestLocalTrainSteadyStateAllocFree pins the allocation criterion at the
// client level: once a client has participated (engine batch buffers,
// FedTrip's w_hist, round vectors built) and the server recycles its
// uploads, a full local round performs zero heap allocations.
func TestLocalTrainSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in the non-race job")
	}
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	global := s.Global()
	scratch := make([]Update, 1)
	// Warm up: engine buffers, w_hist, params pool.
	for i := 1; i <= 2; i++ {
		scratch[0] = c.LocalTrain(i, global)
		recycleUpdates(scratch)
	}
	round := 3
	allocs := testing.AllocsPerRun(5, func() {
		scratch[0] = c.LocalTrain(round, global)
		recycleUpdates(scratch)
		round++
	})
	if allocs > 0 {
		t.Fatalf("LocalTrain allocates %v objects per round in steady state", allocs)
	}
}

// TestLocalTrainAllocFreeAtTwoProcs is TestLocalTrainSteadyStateAllocFree
// at GOMAXPROCS 2, which testing.AllocsPerRun cannot see (it sets
// GOMAXPROCS to 1): a kernel that fanned out across goroutines inside a
// shard would allocate its goroutines and closures here every round
// (about 25 objects). Like AllocsPerRun it reads the integer mean per
// round: until every P's sync.Pools hold an item, a goroutine that moves
// to another P can miss one (a P's private slot cannot be stolen) and
// allocate a few stray objects in a whole measurement.
func TestLocalTrainAllocFreeAtTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in the non-race job")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	global := s.Global()
	scratch := make([]Update, 1)
	round := 1
	train := func() {
		scratch[0] = c.LocalTrain(round, global)
		recycleUpdates(scratch)
		round++
	}
	// Warm up: engine buffers, w_hist, params pool.
	train()
	train()
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		train()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n/rounds > 0 {
		t.Fatalf("LocalTrain allocates %.2f objects per round at GOMAXPROCS 2", float64(n)/rounds)
	}
}

// TestEvaluateSteadyStateAllocFree pins evaluation the same way: the batch
// tensor, indices and labels belong to the tester and the model's
// activations are built by the first call, so every later evaluation of
// the global model performs zero heap allocations.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in the non-race job")
	}
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.BatchSize = 30 // 200 test samples: six full chunks and a tail of 20
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.EvaluateGlobal()
	if allocs := testing.AllocsPerRun(5, func() { s.EvaluateGlobal() }); allocs > 0 {
		t.Fatalf("EvaluateGlobal allocates %v objects per call in steady state", allocs)
	}
}

// inFlightVectors counts the |w|-sized vectors the buffered runner's
// in-flight jobs hold: global snapshots still checked out of the pool,
// and finished uploads waiting for their virtual arrival.
func inFlightVectors(rs *RunState) (globals, uploads int) {
	for _, j := range rs.run.inflight.js {
		if j.global != nil {
			globals++
		}
		if j.update.Params != nil {
			uploads++
		}
	}
	return globals, uploads
}

// A trained dispatch's global snapshot is dead from the join on and goes
// back to the pool there — not later, at the virtual arrival. The
// witness: a run that never stopped holds, once a snapshot has trained
// every job waiting in flight, exactly what a snapshot→resume of it holds
// at the same boundary (a resumed job never had a global).
func TestInFlightVectorsMatchResumedRun(t *testing.T) {
	build := func() RunSpec {
		sp := RunSpec{Config: snapTestConfig(t, 12), Runtime: RuntimeAsync}
		sp.Concurrency = 3
		sp.BufferSize = 2
		sp.Latency = mustFleet(ParseLatency("const:2"))
		sp.Network = mustFleet(ParseNetDist("tiered"))
		return sp
	}
	rs, err := NewRunState(build())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < 6; i++ {
		if done, err := rs.Step(); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i+1, done, err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	globals, uploads := inFlightVectors(rs)
	if uploads == 0 {
		t.Fatal("no upload in flight at the boundary; the scenario checks nothing")
	}
	resumed, err := Resume(&buf, ResumeSpec{Spec: build()})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	wantGlobals, wantUploads := inFlightVectors(resumed)
	if globals != wantGlobals || uploads != wantUploads {
		t.Fatalf("continuous run holds %d globals + %d uploads in flight, the resumed run %d + %d",
			globals, uploads, wantGlobals, wantUploads)
	}
}

// TestSharedSnapshotOutlivesAggregations is the aliasing pin for the
// global model's side of the pool, in the mode where jobs really overlap
// the loop: every job dispatched at one model version trains from one
// shared copy, and a straggler keeps its version's copy alive — intact,
// and handed to nobody else — across the aggregations that supersede it.
// The copy goes back to the pool with the version's last join, so the
// run takes one copy per version, not per dispatch, and holds after
// Close only those its waiting jobs will train from.
func TestSharedSnapshotOutlivesAggregations(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 10
	cfg.EvalEvery = 100
	var r *bufferedRunner
	cfg.OnUpdates = func(round int, globalBefore []float64, updates []Update) {
		for i := range r.snaps {
			vec := r.snaps[i].vec
			if vec == nil {
				continue
			}
			if &vec[0] == &globalBefore[0] {
				t.Errorf("agg %d: a snapshot aliases the live global model", round)
			}
			for _, u := range updates {
				if &u.Params[0] == &vec[0] {
					t.Errorf("agg %d: client %d's upload was handed a live snapshot's buffer", round, u.ClientID)
				}
			}
		}
	}
	rs, err := NewRunState(RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("straggler:1,10,3")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	r = rs.run
	// versions[v] is the model jobs dispatched for round v train from:
	// the global after v-1 aggregations.
	versions := map[int][]float64{1: append([]float64(nil), rs.Server().Global()...)}
	longest := 0
	for done := false; !done; {
		if done, err = rs.Step(); err != nil {
			t.Fatal(err)
		}
		versions[rs.Round()+1] = append([]float64(nil), rs.Server().Global()...)
		byRound := map[int]*float64{}
		for _, j := range r.inflight.js {
			if j.global == nil {
				continue // joined: the job gave its reference up
			}
			if !sameFloats(j.global, versions[j.round]) {
				t.Fatalf("after agg %d: the job dispatched for round %d no longer holds that round's model", rs.Round(), j.round)
			}
			if p, ok := byRound[j.round]; ok && p != &j.global[0] {
				t.Fatalf("after agg %d: two jobs of round %d train from different copies", rs.Round(), j.round)
			}
			byRound[j.round] = &j.global[0]
			if n := rs.Round() - j.round + 1; n > longest {
				longest = n
			}
		}
		seen := map[*float64]bool{}
		for _, p := range byRound {
			if seen[p] {
				t.Fatalf("after agg %d: two model versions share one buffer", rs.Round())
			}
			seen[p] = true
		}
		if live := liveSnapshots(r); live != len(byRound) {
			t.Fatalf("after agg %d: %d snapshots checked out for %d versions with a job still training", rs.Round(), live, len(byRound))
		}
	}
	if longest < 2 {
		t.Fatalf("no job spanned two aggregations (longest: %d); the scenario checks nothing", longest)
	}
	if aggs := rs.Round(); r.snapshots > aggs+1 || r.snapshots >= r.seq {
		t.Fatalf("%d global copies for %d aggregations and %d dispatches; want at most one per model version", r.snapshots, aggs, r.seq)
	}
	rs.Close()
	// What still waits to train keeps its version, for a snapshot of the
	// closed run to train it from; nothing else does.
	waiting := map[*globalSnap]bool{}
	for _, j := range r.inflight.js {
		if !j.trained {
			waiting[j.gsnap] = true
		}
	}
	if live := liveSnapshots(r); r.cur != nil || live != len(waiting) {
		t.Fatalf("after Close the runner holds snapshots: current %v, %d checked out for the %d versions jobs wait to train from", r.cur != nil, live, len(waiting))
	}
}

// liveSnapshots counts the global copies r has checked out of the pool.
func liveSnapshots(r *bufferedRunner) int {
	live := 0
	for i := range r.snaps {
		if r.snaps[i].vec != nil {
			live++
		}
	}
	return live
}
