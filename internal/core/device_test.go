package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/prng"
)

// sampleDeviceSpeeds materializes the per-ID derivation for a whole fleet;
// the runtime derives speeds on demand instead.
func sampleDeviceSpeeds(n int, dist FleetDist, seed int64) []float64 {
	var scratch prng.Rand
	speeds := make([]float64, n)
	for id := 0; id < n; id++ {
		speeds[id] = dist.speed(id, seed, &scratch)
	}
	return speeds
}

// pinAlgo is plain FedAvg with a name: its per-round FLOPs depend only on
// the client's data size, never on participation history, which the
// bit-for-bit device pin relies on (identical work => identical
// flop-derived durations => identical arrival order).
type pinAlgo struct{ Base }

func (pinAlgo) Name() string { return "pin-fedavg" }

func deviceSpec(t *testing.T, algo Algorithm) RunSpec {
	t.Helper()
	sp := RunSpec{Config: testConfig(t, algo), Runtime: RuntimeAsync}
	sp.Rounds = 10
	sp.Concurrency = 4
	sp.BufferSize = 2
	return sp
}

func TestParseDeviceDist(t *testing.T) {
	good := map[string]string{
		"none":                   "",
		"":                       "",
		"uniform:0.5,2":          "uniform:0.5,2",
		"lognormal:0,0.6":        "lognormal:0,0.6",
		"tiered":                 "tiered:0.25,0.3,1,0.6,4,0.1",
		"tiered:0.5,0.5,2,0.5":   "tiered:0.5,0.5,2,0.5",
		"lognormal:-0.2,0":       "lognormal:-0.2,0",
		"uniform:1,1":            "uniform:1,1",
		"tiered:1,1":             "tiered:1,1",
		"lognormal:0.25,0.00125": "lognormal:0.25,0.00125",
	}
	for spec, want := range good {
		d, err := ParseDeviceDist(spec)
		if err != nil {
			t.Fatalf("ParseDeviceDist(%q): %v", spec, err)
		}
		if want == "" {
			if !d.None() {
				t.Fatalf("ParseDeviceDist(%q) = %v, want none", spec, d)
			}
			continue
		}
		if d.String() != want {
			t.Fatalf("ParseDeviceDist(%q).String() = %q want %q", spec, d.String(), want)
		}
	}
	for _, spec := range append([]string{
		"uniform", "uniform:1", "uniform:0,1", "uniform:2,1", "uniform:1,2,3",
		"lognormal:0", "lognormal:0,-1", "tiered:1", "tiered:1,0", "tiered:-1,0.5",
		"gauss:1,2", "uniform:a,b", "none:1",
	}, nonFinite["device-dist"]...) {
		if _, err := ParseDeviceDist(spec); err == nil {
			t.Errorf("ParseDeviceDist(%q) accepted", spec)
		}
	}
}

func TestDeviceDistributionsSampleInRange(t *testing.T) {
	for _, d := range []FleetDist{
		mustFleet(ParseDeviceDist("uniform:0.5,2")),
		mustFleet(ParseDeviceDist("lognormal:0,0.8")),
		mustFleet(ParseDeviceDist("tiered")),
	} {
		speeds := sampleDeviceSpeeds(500, d, 11)
		seen := map[float64]bool{}
		for _, s := range speeds {
			if s < minDeviceSpeed || s > maxDeviceSpeed {
				t.Fatalf("%s sampled speed %g outside clamp range", d, s)
			}
			seen[s] = true
		}
		if len(seen) < 2 {
			t.Fatalf("%s produced a degenerate fleet", d)
		}
	}
	// Tiered sampling must only emit tier speeds.
	tiers := mustFleet(ParseDeviceDist("tiered"))
	for _, s := range sampleDeviceSpeeds(200, tiers, 5) {
		if s != 0.25 && s != 1 && s != 4 {
			t.Fatalf("tiered fleet sampled off-tier speed %g", s)
		}
	}
	// Sampling is deterministic per seed.
	a := sampleDeviceSpeeds(100, mustFleet(ParseDeviceDist("lognormal:0,1")), 7)
	b := sampleDeviceSpeeds(100, mustFleet(ParseDeviceDist("lognormal:0,1")), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("device sampling not deterministic per seed")
		}
	}
}

func TestParseChurn(t *testing.T) {
	if m, err := ParseChurn("none"); err != nil || m != nil {
		t.Fatalf("ParseChurn(none) = %v, %v", m, err)
	}
	if m, err := ParseChurn(""); err != nil || m != nil {
		t.Fatalf("ParseChurn(\"\") = %v, %v", m, err)
	}
	m, err := ParseChurn("markov:90,10")
	if err != nil || m.MeanUp != 90 || m.MeanDown != 10 || len(m.Drops) != 0 {
		t.Fatalf("ParseChurn(markov:90,10) = %+v, %v", m, err)
	}
	m, err = ParseChurn("markov:90,10+drop:60,0.3,30+drop:100,0.5,0")
	if err != nil || len(m.Drops) != 2 || m.Drops[1].Duration != 0 {
		t.Fatalf("combined churn spec = %+v, %v", m, err)
	}
	if m.String() != "markov:90,10+drop:60,0.3,30+drop:100,0.5,0" {
		t.Fatalf("String round-trip %q", m.String())
	}
	if m, err := ParseChurn("drop:5,1,0"); err != nil || len(m.Drops) != 1 {
		t.Fatalf("drop-only churn = %+v, %v", m, err)
	}
	for _, spec := range []string{
		"markov", "markov:1", "markov:0,1", "markov:1,0", "markov:1,2+markov:3,4",
		"drop:1,0,5", "drop:1,1.5,5", "drop:-1,0.5,5", "drop:1,0.5",
		"bogus:1", "markov:a,b",
	} {
		if _, err := ParseChurn(spec); err == nil {
			t.Errorf("ParseChurn(%q) accepted", spec)
		}
	}
}

// The acceptance pin: a zero-heterogeneity device fleet (every client at
// speed 1, no churn, adaptive steps enabled but never binding) must
// reproduce the plain async runtime's trajectory bit-for-bit. The
// reference is a constant-latency run — both fleets have
// dispatch-order-invariant durations, so selection, arrival order,
// staleness, and therefore every merged number coincide; only the
// simulated clock's unit differs.
func TestDeviceUniformFleetMatchesConstLatency(t *testing.T) {
	ref := deviceSpec(t, pinAlgo{})
	ref.Latency = mustFleet(ParseLatency("const:3"))
	refRes, err := Start(ref)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceSpec(t, pinAlgo{})
	dev.Devices = mustFleet(ParseDeviceDist("uniform:1,1"))
	dev.AdaptiveLocalSteps = true
	devRes, err := Start(dev)
	if err != nil {
		t.Fatal(err)
	}
	if devRes.Rounds != refRes.Rounds {
		t.Fatalf("rounds %d vs %d", devRes.Rounds, refRes.Rounds)
	}
	for i := range refRes.Accuracy {
		if devRes.Accuracy[i] != refRes.Accuracy[i] {
			t.Fatalf("agg %d accuracy %v vs %v", i+1, devRes.Accuracy[i], refRes.Accuracy[i])
		}
		if devRes.TrainLoss[i] != refRes.TrainLoss[i] {
			t.Fatalf("agg %d loss %v vs %v", i+1, devRes.TrainLoss[i], refRes.TrainLoss[i])
		}
		if devRes.GFLOPsByRound[i] != refRes.GFLOPsByRound[i] {
			t.Fatalf("agg %d gflops %v vs %v", i+1, devRes.GFLOPsByRound[i], refRes.GFLOPsByRound[i])
		}
		if devRes.CommBytesByRound[i] != refRes.CommBytesByRound[i] {
			t.Fatalf("agg %d comm %v vs %v", i+1, devRes.CommBytesByRound[i], refRes.CommBytesByRound[i])
		}
		if devRes.MeanStalenessByRound[i] != refRes.MeanStalenessByRound[i] {
			t.Fatalf("agg %d staleness %v vs %v", i+1, devRes.MeanStalenessByRound[i], refRes.MeanStalenessByRound[i])
		}
	}
	if devRes.BestAccuracy != refRes.BestAccuracy || devRes.FinalAccuracy != refRes.FinalAccuracy {
		t.Fatal("summary metrics diverged")
	}
	if devRes.DroppedUpdates != 0 {
		t.Fatalf("no churn but %d dropped updates", devRes.DroppedUpdates)
	}
	// The device clock must be flop-derived and positive.
	if devRes.SimTimeByRound[len(devRes.SimTimeByRound)-1] <= 0 {
		t.Fatal("device fleet produced no simulated time")
	}
}

// A uniformly 4x-slower fleet does identical work at a quarter of the
// throughput: the simulated clock must stretch by exactly 4x.
func TestDeviceSpeedScalesSimTime(t *testing.T) {
	run := func(speed float64) *Result {
		sp := deviceSpec(t, pinAlgo{})
		sp.Devices = mustFleet(ParseDeviceDist(fmt.Sprintf("uniform:%g,%g", speed, speed)))
		res, err := Start(sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, slow := run(1), run(0.25)
	for i := range fast.SimTimeByRound {
		ratio := slow.SimTimeByRound[i] / fast.SimTimeByRound[i]
		if math.Abs(ratio-4) > 1e-9 {
			t.Fatalf("agg %d sim-time ratio %v want 4", i+1, ratio)
		}
		if slow.Accuracy[i] != fast.Accuracy[i] {
			t.Fatalf("agg %d trajectory diverged under a pure speed rescale", i+1)
		}
	}
}

// stepsProbe records the steps each participation had run by EndRound.
type stepsProbe struct {
	Base
	mu    sync.Mutex
	steps []int
}

func (*stepsProbe) Name() string { return "steps-probe" }
func (p *stepsProbe) EndRound(c *Client, round int) {
	p.mu.Lock()
	p.steps = append(p.steps, c.RoundSteps())
	p.mu.Unlock()
}

// Adaptive local steps: a quarter-speed fleet runs a quarter of the
// round's mini-batch steps (clamped to at least one), burns
// proportionally fewer FLOPs, and the executed count is RoundSteps to a
// method's EndRound and Update.Steps to the aggregation.
func TestAdaptiveLocalStepsShrinkWork(t *testing.T) {
	run := func(adaptive bool, algo Algorithm) *Result {
		sp := deviceSpec(t, algo)
		sp.Devices = mustFleet(ParseDeviceDist("uniform:0.25,0.25"))
		sp.AdaptiveLocalSteps = adaptive
		// The executed count rides each upload to the aggregation.
		wantSteps := 4
		if adaptive {
			wantSteps = 1
		}
		sp.OnUpdates = func(round int, _ []float64, updates []Update) {
			for _, u := range updates {
				if u.Steps != wantSteps {
					t.Errorf("round %d client %d: Update.Steps %d want %d", round, u.ClientID, u.Steps, wantSteps)
				}
			}
		}
		res, err := Start(sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probe := &stepsProbe{}
	full := run(false, pinAlgo{})
	adaptive := run(true, probe)
	fullG := full.GFLOPsByRound[len(full.GFLOPsByRound)-1]
	adG := adaptive.GFLOPsByRound[len(adaptive.GFLOPsByRound)-1]
	// testConfig: 80 samples, batch 20, 1 epoch = 4 full steps; 0.25x
	// speed budgets exactly 1 step, so the adaptive run must cost ~1/4.
	if adG >= fullG/2 {
		t.Fatalf("adaptive steps did not shrink compute: %v vs %v GFLOPs", adG, fullG)
	}
	if len(probe.steps) == 0 {
		t.Fatal("probe never ran")
	}
	for _, steps := range probe.steps {
		if steps != 1 {
			t.Fatalf("RoundSteps %d want 1", steps)
		}
	}
	// And the deadline effect: fewer steps at the same speed make rounds
	// proportionally faster in simulated time.
	if at, ft := adaptive.SimTimeByRound[len(adaptive.SimTimeByRound)-1], full.SimTimeByRound[len(full.SimTimeByRound)-1]; at >= ft {
		t.Fatalf("adaptive run simulated time %v not below full run %v", at, ft)
	}
}

func TestAdaptiveStepsBudget(t *testing.T) {
	cases := []struct {
		speed          float64
		samples, batch int
		epochs         int
		want           int
	}{
		{1, 80, 20, 1, 4},
		{0.25, 80, 20, 1, 1},
		{0.5, 80, 20, 2, 4},
		{0.01, 80, 20, 1, 1}, // never below one step
		{8, 80, 20, 1, 4},    // never above the full budget
		{0.5, 90, 20, 1, 3},  // ceil(90/20)=5 full steps, round(2.5)=2... see below
	}
	for _, c := range cases[:5] {
		if got := adaptiveSteps(c.speed, c.samples, c.batch, c.epochs); got != c.want {
			t.Fatalf("adaptiveSteps(%v,%d,%d,%d) = %d want %d", c.speed, c.samples, c.batch, c.epochs, got, c.want)
		}
	}
	if got := adaptiveSteps(0.5, 90, 20, 1); got != 2 && got != 3 {
		t.Fatalf("adaptiveSteps rounding = %d", got)
	}
}

// All clients permanently dropped mid-run: the event loop must terminate
// with an error instead of deadlocking — there is no arrival and no
// rejoin left to advance the clock.
func TestChurnAllClientsDroppedTerminates(t *testing.T) {
	sp := deviceSpec(t, NewFedTrip(0.4))
	sp.Rounds = 100
	sp.Latency = mustFleet(ParseLatency("const:1"))
	sp.Churn = &ChurnModel{Drops: []MassDrop{{At: 2.5, Fraction: 1, Duration: 0}}}
	res, err := Start(sp)
	if err == nil {
		t.Fatal("fully dead fleet did not stall the runtime")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("unexpected stall error: %v", err)
	}
	if res == nil || res.Rounds >= 100 {
		t.Fatalf("expected a partial result, got %+v", res)
	}
	if res.DroppedUpdates == 0 {
		t.Fatal("in-flight updates of permanently dropped clients must be counted as lost")
	}

	// The degenerate corner: everyone dead before the first dispatch.
	sp2 := deviceSpec(t, NewFedTrip(0.4))
	sp2.Churn = &ChurnModel{Drops: []MassDrop{{At: 0, Fraction: 1, Duration: 0}}}
	if _, err := Start(sp2); err == nil {
		t.Fatal("fleet dead at t=0 did not stall the runtime")
	}
}

// A client that drops mid-flight rejoins with its update deferred past
// the outage — stale enough to cross a maxstale cutoff, whose
// weight-0 admission must not disturb the merge arithmetic (the pooled
// buffer is recycled by the same unconditional path as any admitted
// update).
func TestChurnRejoinStaleUpdatePastCutoff(t *testing.T) {
	const cutoff = 3
	build := func() RunSpec {
		sp := deviceSpec(t, NewFedTrip(0.4))
		sp.Rounds = 25
		sp.Concurrency = 3
		sp.BufferSize = 2
		sp.Latency = mustFleet(ParseLatency("const:1"))
		// Short lives, long outages: in-flight drops defer arrivals far
		// past the cutoff while the rest of the fleet keeps merging.
		sp.Churn = &ChurnModel{MeanUp: 4, MeanDown: 40}
		sp.Policy = mustPolicy(t, fmt.Sprintf("fedbuff+maxstale:%d", cutoff))
		return sp
	}
	sp := build()
	maxStale := 0
	var mu sync.Mutex
	sp.OnUpdates = func(round int, global []float64, updates []Update) {
		mu.Lock()
		for _, u := range updates {
			if u.Staleness > maxStale {
				maxStale = u.Staleness
			}
		}
		mu.Unlock()
	}
	res, err := Start(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 25 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if maxStale <= cutoff {
		t.Fatalf("churn produced max staleness %d; the cutoff (%d) was never exercised", maxStale, cutoff)
	}
	// Weight-0 admissions must leave the model finite and the run
	// replayable (the recycled-buffer pin: a corrupted pool would show
	// up as a diverging replay).
	res2, err := Start(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Accuracy {
		if res.Accuracy[i] != res2.Accuracy[i] {
			t.Fatalf("churn run not replayable at agg %d", i+1)
		}
	}
}

// Same seed => same dropout schedule and same trajectory; a different
// seed must actually move the churn process.
func TestChurnDeterminismAcrossSeedsAndShards(t *testing.T) {
	build := func(seed int64, shards int) RunSpec {
		sp := deviceSpec(t, NewFedTrip(0.4))
		sp.Rounds = 15
		sp.Seed = seed
		sp.Shards = shards
		sp.Devices = mustFleet(ParseDeviceDist("lognormal:0,0.6"))
		sp.AdaptiveLocalSteps = true
		sp.Churn = &ChurnModel{MeanUp: 10, MeanDown: 5, Drops: []MassDrop{{At: 8, Fraction: 0.3, Duration: 6}}}
		return sp
	}
	r1, err := Start(build(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Start(build(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.DroppedUpdates != r2.DroppedUpdates {
		t.Fatalf("dropped updates %d vs %d on the same seed", r1.DroppedUpdates, r2.DroppedUpdates)
	}
	for i := range r1.Accuracy {
		if r1.Accuracy[i] != r2.Accuracy[i] || r1.SimTimeByRound[i] != r2.SimTimeByRound[i] {
			t.Fatalf("churn run not deterministic at agg %d", i+1)
		}
	}
	// Shard-count independence: the real-parallelism knob must not touch
	// the virtual schedule or the trajectory.
	r3, err := Start(build(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Start(build(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r3.Accuracy {
		if r3.Accuracy[i] != r4.Accuracy[i] || r3.SimTimeByRound[i] != r4.SimTimeByRound[i] {
			t.Fatalf("churn trajectory depends on shard count at agg %d", i+1)
		}
	}
	// A different seed has to produce a different availability history.
	r5, err := Start(build(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.SimTimeByRound {
		if i >= len(r5.SimTimeByRound) || r1.SimTimeByRound[i] != r5.SimTimeByRound[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds replayed an identical virtual schedule")
	}
}

func TestMaxStalenessPolicy(t *testing.T) {
	p := resolvedPolicy(t, "fedavg+maxstale:3", 2)
	if p.String() != "fedavg+maxstale:3" {
		t.Fatalf("prints %q", p)
	}
	if w := p.Weight(Update{NumSamples: 10, Staleness: 3}); w != 10 {
		t.Fatalf("weight at cutoff %v want 10", w)
	}
	if w := p.Weight(Update{NumSamples: 10, Staleness: 4}); w != 0 {
		t.Fatalf("weight past cutoff %v want 0", w)
	}
	if !p.ReadyToMerge(2) || p.ReadyToMerge(1) {
		t.Fatal("a cutoff must leave the merge threshold alone")
	}
	// A cutoff of 0 admits fresh updates only; it is not "no cutoff".
	fresh := resolvedPolicy(t, "maxstale:0", 2)
	if fresh.Weight(Update{NumSamples: 10}) != 10 || fresh.Weight(Update{NumSamples: 10, Staleness: 1}) != 0 {
		t.Fatal("maxstale:0 must admit staleness 0 and nothing else")
	}

	// Parse forms.
	if pol := mustPolicy(t, "maxstale:5"); !pol.Cutoff || pol.MaxStale != 5 || pol.Kind != "" {
		t.Fatalf("ParsePolicy(maxstale:5) = %#v", pol)
	}
	if pol := mustPolicy(t, "fedbuff:0.5+maxstale:8"); !pol.Cutoff || pol.MaxStale != 8 || pol.Kind != PolicyFedBuff {
		t.Fatalf("composed parse = %#v", pol)
	}
	for _, bad := range []string{"maxstale", "maxstale:-1", "maxstale:1.5", "maxstale:a", "fedbuff+maxstale:-2", "nope+maxstale:1"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}

	// Validate fills the unset base with the runtime default.
	sp := deviceSpec(t, NewFedTrip(0.4))
	sp.Policy = Policy{Cutoff: true, MaxStale: 4}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Policy.String() != "fedbuff:0.5+maxstale:4" {
		t.Fatalf("resolved policy %q", sp.Policy)
	}
}

func TestRunSpecRejectsDeviceMisuse(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunSpec)
	}{
		{"devices on sync", func(sp *RunSpec) { sp.Runtime = RuntimeSync; sp.Devices = mustFleet(ParseDeviceDist("uniform:1,1")) }},
		{"devices with latency model", func(sp *RunSpec) {
			sp.Devices = mustFleet(ParseDeviceDist("uniform:1,1"))
			sp.Latency = mustFleet(ParseLatency("straggler:1,10,3"))
		}},
		{"negative flop rate", func(sp *RunSpec) { sp.Devices = mustFleet(ParseDeviceDist("uniform:1,1")); sp.FlopRate = -1 }},
		{"NaN flop rate", func(sp *RunSpec) { sp.Devices = mustFleet(ParseDeviceDist("uniform:1,1")); sp.FlopRate = math.NaN() }},
		{"infinite flop rate", func(sp *RunSpec) { sp.Devices = mustFleet(ParseDeviceDist("uniform:1,1")); sp.FlopRate = math.Inf(1) }},
		{"adaptive without devices", func(sp *RunSpec) { sp.AdaptiveLocalSteps = true }},
		{"flop rate without devices", func(sp *RunSpec) { sp.FlopRate = 2e9 }},
		{"churn on sync", func(sp *RunSpec) {
			sp.Runtime = RuntimeSync
			sp.Churn = &ChurnModel{MeanUp: 10, MeanDown: 5}
		}},
		{"empty churn model", func(sp *RunSpec) { sp.Churn = &ChurnModel{} }},
		{"half-zero markov", func(sp *RunSpec) { sp.Churn = &ChurnModel{MeanUp: 10} }},
		{"bad mass drop", func(sp *RunSpec) { sp.Churn = &ChurnModel{Drops: []MassDrop{{At: -1, Fraction: 0.5}}} }},
		{"negative cutoff", func(sp *RunSpec) { sp.Policy = Policy{Cutoff: true, MaxStale: -1} }},
		{"cutoff without its switch", func(sp *RunSpec) { sp.Policy = Policy{MaxStale: 4} }},
	}
	for _, tc := range cases {
		sp := deviceSpec(t, NewFedTrip(0.4))
		tc.mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The happy path still validates (devices + churn + adaptive steps,
	// zero latency left implicit).
	sp := deviceSpec(t, NewFedTrip(0.4))
	sp.Devices = mustFleet(ParseDeviceDist("tiered"))
	sp.AdaptiveLocalSteps = true
	sp.Churn = &ChurnModel{MeanUp: 60, MeanDown: 6}
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid device spec rejected: %v", err)
	}
	if sp.FlopRate != 1e9 {
		t.Fatalf("default flop rate %g", sp.FlopRate)
	}
}

// The aggregate churn process must be distribution-equivalent to the
// per-client Markov chains it replaced: with nUp clients online, the
// fleet's next drop ~ Exp(nUp/MeanUp) with a uniform victim, and
// symmetrically for rejoins. This pins the equivalence at 10k clients by
// running both the aggregate process and an explicit per-client
// reference simulation over the same horizon and comparing event rates,
// the time-averaged offline fraction, and the per-client drop-count
// spread. Both are stochastic, so the comparison is statistical — but
// with fixed seeds the test itself is deterministic.
func TestChurnAggregateMatchesPerClientChains(t *testing.T) {
	const (
		n        = 10_000
		meanUp   = 50.0
		meanDown = 10.0
		horizon  = 200.0
	)
	m := &ChurnModel{MeanUp: meanUp, MeanDown: meanDown}

	// Aggregate process under test.
	c := newChurn(n, m, 77)
	aggDropsPer := make([]int, n)
	var aggDrops, aggRejoins int
	var aggOffTime float64
	lastT := 0.0
	// The callbacks keep their own running offline count (integrated
	// against event times) and cross-check it against the churn state at
	// the end.
	offNow := 0
	onDrop := func(id int, at float64, permanent bool) {
		aggOffTime += float64(offNow) * (at - lastT)
		lastT = at
		offNow++
		aggDrops++
		aggDropsPer[id]++
		if permanent {
			t.Fatalf("pure Markov model produced a permanent drop for client %d", id)
		}
	}
	onRejoin := func(id int, at float64) {
		aggOffTime += float64(offNow) * (at - lastT)
		lastT = at
		offNow--
		aggRejoins++
	}
	c.advance(horizon, onDrop, onRejoin)
	aggOffTime += float64(offNow) * (horizon - lastT)
	if got := c.offlineCount(); got != offNow {
		t.Fatalf("callback bookkeeping drifted: %d offline per callbacks, churn reports %d", offNow, got)
	}

	// Reference: n independent per-client on/off chains, simulated
	// explicitly. Each client alternates Exp(meanUp) online and
	// Exp(meanDown) offline phases from its own stream.
	refDropsPer := make([]int, n)
	var refDrops, refRejoins int
	var refOffTime float64
	for id := 0; id < n; id++ {
		rng := prng.New(int64(1_000_003 + id))
		tNow, online := 0.0, true
		for {
			var dur float64
			if online {
				dur = rng.ExpFloat64() * meanUp
			} else {
				dur = rng.ExpFloat64() * meanDown
			}
			if tNow+dur > horizon {
				if !online {
					refOffTime += horizon - tNow
				}
				break
			}
			tNow += dur
			if online {
				refDrops++
				refDropsPer[id]++
			} else {
				refOffTime += dur
				refRejoins++
			}
			online = !online
		}
	}

	relDiff := func(a, b float64) float64 {
		if b == 0 {
			return math.Abs(a)
		}
		return math.Abs(a-b) / math.Abs(b)
	}
	// Event rates: ~33k drops expected, stochastic spread well under 2%.
	if d := relDiff(float64(aggDrops), float64(refDrops)); d > 0.03 {
		t.Errorf("drop totals diverge: aggregate %d, reference %d (%.1f%%)", aggDrops, refDrops, 100*d)
	}
	if d := relDiff(float64(aggRejoins), float64(refRejoins)); d > 0.03 {
		t.Errorf("rejoin totals diverge: aggregate %d, reference %d (%.1f%%)", aggRejoins, refRejoins, 100*d)
	}
	// Time-averaged offline fraction: both start all-online, so they
	// share the same warm-up transient; compare to each other tightly and
	// to the steady state pi = MeanDown/(MeanUp+MeanDown) loosely (the
	// transient biases the [0,horizon] average low by ~ tau/horizon).
	aggFrac := aggOffTime / (horizon * n)
	refFrac := refOffTime / (horizon * n)
	if d := relDiff(aggFrac, refFrac); d > 0.03 {
		t.Errorf("offline fractions diverge: aggregate %.4f, reference %.4f (%.1f%%)", aggFrac, refFrac, 100*d)
	}
	pi := meanDown / (meanUp + meanDown)
	if d := relDiff(aggFrac, pi); d > 0.10 {
		t.Errorf("aggregate offline fraction %.4f far from steady state %.4f", aggFrac, pi)
	}
	// Per-client spread: uniform victim sampling must reproduce the
	// per-client drop-count distribution, not just the total. Compare
	// mean and variance of the 10k per-client counts.
	moments := func(counts []int) (mean, variance float64) {
		for _, k := range counts {
			mean += float64(k)
		}
		mean /= float64(len(counts))
		for _, k := range counts {
			d := float64(k) - mean
			variance += d * d
		}
		variance /= float64(len(counts) - 1)
		return
	}
	aggMean, aggVar := moments(aggDropsPer)
	refMean, refVar := moments(refDropsPer)
	if d := relDiff(aggMean, refMean); d > 0.03 {
		t.Errorf("per-client drop means diverge: aggregate %.3f, reference %.3f", aggMean, refMean)
	}
	if d := relDiff(aggVar, refVar); d > 0.12 {
		t.Errorf("per-client drop variances diverge: aggregate %.3f, reference %.3f", aggVar, refVar)
	}
}
