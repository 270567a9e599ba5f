package core

import (
	"math"
	"testing"
)

// tinyServer builds a Server around a hand-sized parameter vector so
// merges can be checked against pencil-and-paper arithmetic. Only the
// fields aggregateWeightedRate touches are populated.
func tinyServer(global ...float64) *Server {
	return &Server{global: global}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func vecApproxEq(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if !approxEq(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// resolvedPolicy parses a policy text and resolves it as an async run
// with the given buffer size would.
func resolvedPolicy(t *testing.T, text string, buffer int) Policy {
	t.Helper()
	p := mustPolicy(t, text)
	if err := p.resolve(RuntimeAsync, buffer); err != nil {
		t.Fatal(err)
	}
	return p
}

// mergeWith applies one policy-driven merge on a tiny server, the way
// both runtimes do: policy weights, policy merge rate, shared weighted
// average.
func mergeWith(s *Server, pol Policy, t int, updates []Update) {
	weights := make([]float64, len(updates))
	for i, u := range updates {
		weights[i] = pol.Weight(u)
	}
	s.aggregateWeightedRate(weights, updates, pol.MergeRate(t, updates))
}

// FedBuff staleness-discounted weights, pinned against a hand-computed
// merge: two updates with data sizes 10 and 30, staleness 0 and 3, and
// the exponent-1 discount 1/(1+s).
//
//	w1 = 10 * 1      = 10
//	w2 = 30 * 1/4    = 7.5
//	avg = (10*[1,2] + 7.5*[5,6]) / 17.5 = [47.5, 65] / 17.5
func TestFedBuffMergeHandComputed(t *testing.T) {
	pol := resolvedPolicy(t, "fedbuff:1", 2)
	if !pol.ReadyToMerge(2) || pol.ReadyToMerge(1) {
		t.Fatal("fedbuff must merge at exactly K arrivals")
	}
	s := tinyServer(0, 0)
	updates := []Update{
		{Params: []float64{1, 2}, NumSamples: 10, Staleness: 0},
		{Params: []float64{5, 6}, NumSamples: 30, Staleness: 3},
	}
	if w := pol.Weight(updates[1]); !approxEq(w, 7.5) {
		t.Fatalf("discounted weight %v, want 7.5", w)
	}
	mergeWith(s, pol, 1, updates)
	vecApproxEq(t, s.global, []float64{47.5 / 17.5, 65.0 / 17.5}, "fedbuff merge")
}

// At staleness 0 the FedBuff weights reduce to FedAvg's data-size
// weights, which is what the barrier equivalence mode relies on.
func TestFedBuffZeroStalenessMatchesFedAvg(t *testing.T) {
	buff := resolvedPolicy(t, "fedbuff:0.5", 2)
	avg := resolvedPolicy(t, "fedavg", 2)
	u := Update{NumSamples: 17, Staleness: 0}
	if buff.Weight(u) != avg.Weight(u) {
		t.Fatalf("fedbuff weight %v vs fedavg %v at staleness 0", buff.Weight(u), avg.Weight(u))
	}
	if buff.MergeRate(3, nil) != 1 || avg.MergeRate(3, nil) != 1 {
		t.Fatal("replacement policies must merge at rate 1")
	}
}

// FedAsync merges every single arrival, moving the global model toward
// the arriving one by alpha * discount(staleness). Hand-computed: global
// [1,1], arrival [3,5], alpha 0.5, staleness 3 with exponent-1 discount
// 1/4 -> eta 0.125 -> global [1.25, 1.5].
func TestFedAsyncMergeHandComputed(t *testing.T) {
	pol := resolvedPolicy(t, "fedasync:0.5,1", 2)
	if !pol.ReadyToMerge(1) || pol.ReadyToMerge(0) {
		t.Fatal("fedasync must merge on every single arrival")
	}
	updates := []Update{{Params: []float64{3, 5}, NumSamples: 40, Staleness: 3}}
	if eta := pol.MergeRate(7, updates); !approxEq(eta, 0.125) {
		t.Fatalf("merge rate %v, want 0.125", eta)
	}
	s := tinyServer(1, 1)
	mergeWith(s, pol, 7, updates)
	vecApproxEq(t, s.global, []float64{1.25, 1.5}, "fedasync merge")
	// Fresh update at the default alpha: eta = 0.6 exactly.
	def := resolvedPolicy(t, "fedasync", 2)
	if eta := def.MergeRate(1, []Update{{Staleness: 0}}); !approxEq(eta, 0.6) {
		t.Fatalf("default alpha rate %v, want 0.6", eta)
	}
}

// Importance weights amplify high-loss clients: weight = samples *
// discount * (beta + loss). Hand-computed merge of two equal-sized
// updates with losses 1.9 and 0.4 at beta 0.1:
//
//	w1 = 20 * 1 * 2.0 = 40
//	w2 = 20 * 1 * 0.5 = 10
//	avg = (40*[1,0] + 10*[6,10]) / 50 = [2, 2]
func TestImportanceMergeHandComputed(t *testing.T) {
	pol := resolvedPolicy(t, "importance:0.1,0.5", 2)
	updates := []Update{
		{Params: []float64{1, 0}, NumSamples: 20, TrainLoss: 1.9, Staleness: 0},
		{Params: []float64{6, 10}, NumSamples: 20, TrainLoss: 0.4, Staleness: 0},
	}
	if w := pol.Weight(updates[0]); !approxEq(w, 40) {
		t.Fatalf("importance weight %v, want 40", w)
	}
	s := tinyServer(0, 0)
	mergeWith(s, pol, 1, updates)
	vecApproxEq(t, s.global, []float64{2, 2}, "importance merge")
	// Staleness still discounts: same update 3 aggregations late with
	// exponent 1 weighs a quarter as much.
	stale := resolvedPolicy(t, "importance:0.1,1", 2)
	u := updates[0]
	u.Staleness = 3
	if w := stale.Weight(u); !approxEq(w, 10) {
		t.Fatalf("stale importance weight %v, want 10", w)
	}
}

// A server learning-rate schedule scales the merged delta. Hand-computed:
// FedAvg average of [4,8] (single update) from global [0,0] at eta 0.25
// -> [1,2]; and the schedule composes multiplicatively with the inner
// policy's rate.
func TestServerLRScheduleHandComputed(t *testing.T) {
	sched := Rule{F: func(t int) float64 { return 1 / float64(t) }}
	pol := resolvedPolicy(t, "fedavg", 1)
	pol.ServerLR = sched
	if pol.String() != "fedavg+lr:custom" {
		t.Fatalf("prints %q", pol)
	}
	updates := []Update{{Params: []float64{4, 8}, NumSamples: 5}}
	if eta := pol.MergeRate(4, updates); !approxEq(eta, 0.25) {
		t.Fatalf("scheduled rate %v, want 0.25", eta)
	}
	s := tinyServer(0, 0)
	mergeWith(s, pol, 4, updates)
	vecApproxEq(t, s.global, []float64{1, 2}, "scheduled merge")
	// Composition: fedasync alpha 0.5 * schedule 1/2 = 0.25 at t=2.
	comp := resolvedPolicy(t, "fedasync:0.5,0", 2)
	comp.ServerLR = sched
	if eta := comp.MergeRate(2, []Update{{Staleness: 9}}); !approxEq(eta, 0.25) {
		t.Fatalf("composed rate %v, want 0.25", eta)
	}
}

// A zero-weight buffer or a zero merge rate must leave the model exactly
// untouched (no NaNs, no drift).
func TestMergeNoOpGuards(t *testing.T) {
	s := tinyServer(3, -1)
	s.aggregateWeightedRate([]float64{0, 0}, []Update{
		{Params: []float64{1, 1}}, {Params: []float64{2, 2}},
	}, 1)
	vecApproxEq(t, s.global, []float64{3, -1}, "zero weights")
	s.aggregateWeightedRate([]float64{1}, []Update{{Params: []float64{9, 9}}}, 0)
	vecApproxEq(t, s.global, []float64{3, -1}, "zero rate")
}

func TestParsePolicy(t *testing.T) {
	good := []struct {
		spec string
		kind PolicyKind
		text string // what it prints once a run resolved it
	}{
		{"fedavg", PolicyFedAvg, "fedavg"},
		{"fedbuff", PolicyFedBuff, "fedbuff:0.5"},
		{"fedbuff:0.7", PolicyFedBuff, "fedbuff:0.7"},
		{"fedasync", PolicyFedAsync, "fedasync:0.6,0.5"},
		{"fedasync:0.4", PolicyFedAsync, "fedasync:0.4,0.5"},
		{"fedasync:0.4,1", PolicyFedAsync, "fedasync:0.4,1"},
		{"importance", PolicyImportance, "importance:0.1,0.5"},
		{"importance:0.5", PolicyImportance, "importance:0.5,0.5"},
		{"importance:0.5,0.7", PolicyImportance, "importance:0.5,0.7"},
		{"maxstale:4", PolicyFedBuff, "fedbuff:0.5+maxstale:4"},
	}
	for _, g := range good {
		p := resolvedPolicy(t, g.spec, 2)
		if p.Kind != g.kind || p.String() != g.text {
			t.Fatalf("%s resolved to kind %q, text %q", g.spec, p.Kind, p)
		}
		if want := g.kind != PolicyFedAsync; p.ReadyToMerge(1) == want || !p.ReadyToMerge(2) {
			t.Fatalf("%s: merge threshold is not the buffer size (1 for fedasync)", g.spec)
		}
	}
	// Parsed discount exponents are applied, not dropped.
	p, err := ParsePolicy("fedbuff:1")
	if err != nil {
		t.Fatal(err)
	}
	if w := p.Weight(Update{NumSamples: 8, Staleness: 3}); !approxEq(w, 2) {
		t.Fatalf("fedbuff:1 weight %v, want 2", w)
	}
	bad := []string{
		"", "warp", "fedavg:1", "fedbuff:-1", "fedbuff:0.5,0.5", "fedbuff:x",
		"fedasync:0", "fedasync:1.5", "fedasync:0.5,-1", "fedasync:1,1,1",
		"importance:-0.1", "importance:0.1,-1",
		"fedavg+clip:1+clip:5", "fedbuff+maxstale:8+maxstale:2", // one slot per guard
	}
	for _, spec := range bad {
		if _, err := ParsePolicy(spec); err == nil {
			t.Fatalf("%q accepted", spec)
		}
	}
}

func TestParseLRSchedule(t *testing.T) {
	cases := []struct {
		spec string
		t    int
		want float64
	}{
		{"const:0.5", 10, 0.5},
		{"invsqrt:1", 4, 0.5},
		{"invsqrt:2", 1, 2},
		{"step:1,0.5,10", 1, 1},
		{"step:1,0.5,10", 10, 1},
		{"step:1,0.5,10", 11, 0.5},
		{"step:1,0.5,10", 21, 0.25},
	}
	for _, c := range cases {
		r, err := ParseLRSchedule(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := r.F(c.t); !approxEq(got, c.want) {
			t.Fatalf("%s at t=%d: %v, want %v", c.spec, c.t, got, c.want)
		}
	}
	bad := []string{"", "warp:1", "const", "const:-1", "invsqrt:0", "step:1,0.5", "step:0,0.5,10", "step:1,2,10", "step:1,0.5,0", "const:x"}
	for _, spec := range bad {
		if _, err := ParseLRSchedule(spec); err == nil {
			t.Fatalf("%q accepted", spec)
		}
	}
}
