package core

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
)

// asyncTestSpec wraps testConfig's Config into an async-runtime spec with
// default knobs.
func asyncTestSpec(t *testing.T, algo Algorithm) RunSpec {
	t.Helper()
	return RunSpec{Config: testConfig(t, algo), Runtime: RuntimeAsync}
}

// The buffered runtime under straggler latency must stay deterministic,
// keep a monotone simulated clock, record nonnegative staleness, and
// still learn.
func TestAsyncBufferedStragglersLearnAndMeter(t *testing.T) {
	build := func() RunSpec {
		acfg := asyncTestSpec(t, NewFedTrip(0.4))
		acfg.Rounds = 12
		acfg.Concurrency = 4
		acfg.BufferSize = 2
		acfg.Latency = mustFleet(ParseLatency("straggler:1,10,3"))
		return acfg
	}
	res, err := Start(build())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 12 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if len(res.SimTimeByRound) != 12 || len(res.MeanStalenessByRound) != 12 {
		t.Fatal("async metric lengths")
	}
	prev := 0.0
	for i, ts := range res.SimTimeByRound {
		if ts < prev {
			t.Fatalf("sim time decreased at round %d: %v -> %v", i+1, prev, ts)
		}
		prev = ts
		if res.MeanStalenessByRound[i] < 0 {
			t.Fatalf("negative staleness at round %d", i+1)
		}
	}
	if res.SimTimeByRound[11] <= 0 {
		t.Fatal("latency model produced no simulated time")
	}
	if res.BestAccuracy < 0.3 {
		t.Fatalf("async run failed to learn: %v", res.BestAccuracy)
	}
	// Determinism: the whole trajectory must replay exactly.
	res2, err := Start(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Accuracy {
		if res.Accuracy[i] != res2.Accuracy[i] || res.SimTimeByRound[i] != res2.SimTimeByRound[i] {
			t.Fatalf("async run not deterministic at round %d", i+1)
		}
	}
}

// gapAlgo wraps FedTrip and records, at every BeginRound, the dispatch
// round and the client's LastRound as the runtime presented them.
type gapAlgo struct {
	*FedTrip
	mu    sync.Mutex
	seen  map[int][]int // clientID -> dispatch rounds in training order
	prevs map[int][]int // clientID -> LastRound observed at BeginRound
}

func (g *gapAlgo) BeginRound(c *Client, round int, global []float64) {
	g.mu.Lock()
	g.seen[c.ID] = append(g.seen[c.ID], round)
	g.prevs[c.ID] = append(g.prevs[c.ID], c.LastRound)
	g.mu.Unlock()
	g.FedTrip.BeginRound(c, round, global)
}

// Staleness bookkeeping equivalence: the LastRound chain each client sees
// must be exactly its own dispatch history shifted by one (0 first), so
// FedTrip's xi is computed from genuine participation gaps; and every
// merged update's Staleness must sit in [0, t-1].
func TestAsyncStalenessBookkeepingMatchesLastRound(t *testing.T) {
	algo := &gapAlgo{FedTrip: NewFedTrip(0.4), seen: map[int][]int{}, prevs: map[int][]int{}}
	acfg := asyncTestSpec(t, algo)
	acfg.Rounds = 10
	acfg.Concurrency = 3
	acfg.BufferSize = 2
	acfg.Latency = mustFleet(ParseLatency("uniform:0.5,5"))
	var mu sync.Mutex
	type obs struct{ round, staleness int }
	var merged []obs
	acfg.OnUpdates = func(round int, global []float64, updates []Update) {
		mu.Lock()
		for _, u := range updates {
			merged = append(merged, obs{round, u.Staleness})
		}
		mu.Unlock()
	}
	if _, err := Start(acfg); err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("no updates observed")
	}
	sawStale := false
	for _, o := range merged {
		if o.staleness < 0 || o.staleness > o.round-1 {
			t.Fatalf("staleness %d outside [0,%d]", o.staleness, o.round-1)
		}
		if o.staleness > 0 {
			sawStale = true
		}
	}
	if !sawStale {
		t.Fatal("heterogeneous latency produced no stale update — buffer never lagged")
	}
	for id, rounds := range algo.seen {
		prevs := algo.prevs[id]
		if prevs[0] != 0 {
			t.Fatalf("client %d first LastRound %d, want 0", id, prevs[0])
		}
		for i := 1; i < len(rounds); i++ {
			if prevs[i] != rounds[i-1] {
				t.Fatalf("client %d dispatch %d: LastRound %d, want previous dispatch round %d",
					id, i, prevs[i], rounds[i-1])
			}
			if rounds[i] < rounds[i-1] {
				t.Fatalf("client %d dispatch rounds not monotone: %v", id, rounds)
			}
		}
	}
}

// Under partial participation with uniform random dispatch, FedTrip's
// XiInverseGap must actually see gaps larger than one — the regime the
// sync lock-step loop with full participation never produces.
func TestAsyncExercisesXiGaps(t *testing.T) {
	algo := &gapAlgo{FedTrip: NewFedTrip(0.4), seen: map[int][]int{}, prevs: map[int][]int{}}
	acfg := asyncTestSpec(t, algo)
	acfg.Rounds = 15
	acfg.Concurrency = 2 // 2 of 6 clients in flight: most sit out each round
	acfg.BufferSize = 2
	acfg.Latency = mustFleet(ParseLatency("exp:2"))
	if _, err := Start(acfg); err != nil {
		t.Fatal(err)
	}
	maxGap := 0
	for id, rounds := range algo.seen {
		prevs := algo.prevs[id]
		for i := range rounds {
			if prevs[i] == 0 {
				continue
			}
			if gap := rounds[i] - prevs[i]; gap > maxGap {
				maxGap = gap
			}
		}
		_ = id
	}
	if maxGap < 2 {
		t.Fatalf("max participation gap %d — async runtime not exercising staleness", maxGap)
	}
}

// aggAlgo overrides server aggregation; preAlgo needs a pre-round phase.
// Both are unsafe under buffered async (Aggregate/PreRound run while
// other clients are mid-training) and must be rejected there, while the
// barrier mode — which joins every client first — still accepts them.
type aggAlgo struct{ Base }

func (aggAlgo) Name() string { return "agg-test" }
func (aggAlgo) Aggregate(round int, global []float64, updates []Update) []float64 {
	return updates[0].Params
}

type preAlgo struct{ Base }

func (preAlgo) Name() string                                             { return "pre-test" }
func (preAlgo) PreRound(round int, selected []*Client, global []float64) {}

func TestBufferedModeRejectsServerHookAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{aggAlgo{}, preAlgo{}} {
		acfg := asyncTestSpec(t, algo)
		if err := acfg.Validate(); err == nil {
			t.Errorf("buffered mode accepted %s", algo.Name())
		}
		barrier := asyncTestSpec(t, algo)
		barrier.Runtime = RuntimeBarrier
		if err := barrier.Validate(); err != nil {
			t.Errorf("barrier mode rejected %s: %v", algo.Name(), err)
		}
	}
}

// A discount that zeroes every weight (hard staleness cutoff taken to the
// extreme) must leave the global model untouched and finite, not divide
// it into NaNs.
func TestFullyDiscountedBufferLeavesModelFinite(t *testing.T) {
	acfg := asyncTestSpec(t, NewFedTrip(0.4))
	acfg.Rounds = 3
	acfg.Policy.Discount = Rule{F: func(int) float64 { return 0 }}
	rs, err := NewRunState(acfg)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), rs.Server().Global()...)
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	after := rs.Server().Global()
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("zero-weight merges moved the global model at %d", i)
		}
	}
}

func TestPolyDiscount(t *testing.T) {
	d := PolyDiscount(0.5).F
	if d(0) != 1 {
		t.Fatalf("discount at staleness 0 must be exactly 1, got %v", d(0))
	}
	if got := d(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("discount(3) = %v want 0.5", got)
	}
	prev := 1.0
	for s := 1; s < 10; s++ {
		if d(s) >= prev {
			t.Fatalf("discount not decreasing at %d", s)
		}
		prev = d(s)
	}
	if flat := PolyDiscount(0); flat.F(7) != 1 {
		t.Fatal("exponent 0 must disable discounting")
	}
}

// Stragglers make buffered async reach a virtual-time budget far sooner
// than the lock-step barrier: the barrier pays the slow client's latency
// every round it participates, buffered aggregation does not wait.
func TestAsyncBeatsBarrierWallClockUnderStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: virtual-time outcome, not concurrency, under test")
	}
	lat := mustFleet(ParseLatency("straggler:1,20,2")) // ids 0,2,4 slow
	barrier := asyncTestSpec(t, NewFedTrip(0.4))
	barrier.Rounds = 8
	barrier.Runtime = RuntimeBarrier
	barrier.Latency = lat
	bres, err := Start(barrier)
	if err != nil {
		t.Fatal(err)
	}
	buffered := asyncTestSpec(t, NewFedTrip(0.4))
	buffered.Rounds = 8
	buffered.Concurrency = 3
	buffered.BufferSize = 3
	buffered.Latency = lat
	ares, err := Start(buffered)
	if err != nil {
		t.Fatal(err)
	}
	bt := bres.SimTimeByRound[len(bres.SimTimeByRound)-1]
	at := ares.SimTimeByRound[len(ares.SimTimeByRound)-1]
	if at >= bt {
		t.Fatalf("buffered async total time %.1fs not below barrier %.1fs", at, bt)
	}
}

// goroutineAlgo wraps FedTrip and counts the rounds that begin on the
// goroutine named loop, and the ones that begin elsewhere.
type goroutineAlgo struct {
	*FedTrip
	loop        string
	mu          sync.Mutex
	onLoop, off int
}

// goroutineID reads the calling goroutine's number off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

func (g *goroutineAlgo) BeginRound(c *Client, round int, global []float64) {
	g.mu.Lock()
	if goroutineID() == g.loop {
		g.onLoop++
	} else {
		g.off++
	}
	g.mu.Unlock()
	g.FedTrip.BeginRound(c, round, global)
}

// Every job trains on a shard — none on the event-loop goroutine, which
// only waits — and only once it comes due: at the end of a run the jobs
// still waiting in flight never began a round, whether their dispatch
// bound is a latency draw or a device's compute. (The latency fleet ends
// with three of its four waiting; on the device fleet every one had
// trained among the next due jobs a batch fills a shard with.)
func TestJobsTrainOnTheShards(t *testing.T) {
	for _, devices := range []string{"tiered", "none"} {
		algo := &goroutineAlgo{FedTrip: NewFedTrip(0.4), loop: goroutineID()}
		sp := deviceSpec(t, algo)
		sp.Shards = 2
		sp.Devices = mustFleet(ParseDeviceDist(devices))
		if sp.Devices.None() {
			sp.Latency = mustFleet(ParseLatency("uniform:1,3"))
		}
		rs, err := NewRunState(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Run(); err != nil {
			t.Fatal(err)
		}
		_, dispatches := rs.Participation()
		waiting := rs.Footprint().Waiting
		if algo.onLoop != 0 || int64(algo.off+waiting) != dispatches || devices == "none" && waiting == 0 {
			t.Errorf("devices %s: %d rounds trained on the event loop and %d on the shards, %d jobs waiting at the end of %d dispatches", devices, algo.onLoop, algo.off, waiting, dispatches)
		}
	}
}
