package core

import (
	"math"
	"testing"
)

// Regression for the Fig. 6 metric: FinalAccuracy must average only the
// rounds that were actually evaluated. The old implementation averaged
// Result.Accuracy directly, so EvalEvery gaps duplicated carried-forward
// values (and the pre-first-eval zeros) into the mean.
func TestFinalAccuracyAveragesEvaluatedRoundsOnly(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 4
	cfg.EvalEvery = 2
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Only rounds 2 and 4 evaluate; rounds 1 and 3 carry forward.
	want := (res.Accuracy[1] + res.Accuracy[3]) / 2
	if math.Abs(res.FinalAccuracy-want) > 1e-15 {
		t.Fatalf("FinalAccuracy %v, want mean of evaluated rounds %v", res.FinalAccuracy, want)
	}
	// The buggy value (mean over all entries incl. the carried round-1
	// zero) must not come back.
	var buggy float64
	for _, a := range res.Accuracy {
		buggy += a
	}
	buggy /= float64(len(res.Accuracy))
	if res.Accuracy[1] != res.Accuracy[3] && math.Abs(res.FinalAccuracy-buggy) < 1e-15 {
		t.Fatalf("FinalAccuracy %v still averages carried-forward duplicates", res.FinalAccuracy)
	}
}

// With EvalEvery=1 every round is evaluated, so the fixed metric must
// agree with the plain last-10 mean over Accuracy.
func TestFinalAccuracyDenseEvalUnchanged(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	lo := len(res.Accuracy) - 10
	if lo < 0 {
		lo = 0
	}
	var sum float64
	for _, a := range res.Accuracy[lo:] {
		sum += a
	}
	want := sum / float64(len(res.Accuracy)-lo)
	if math.Abs(res.FinalAccuracy-want) > 1e-15 {
		t.Fatalf("FinalAccuracy %v want %v", res.FinalAccuracy, want)
	}
}

// Misconfigured ClientsPerRound must surface as a validation error from
// NewServer/Run — never as an index-out-of-range panic during selection.
func TestClientsPerRoundGuard(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		wantErr bool
	}{
		{"negative", -3, true},
		{"zero", 0, true},
		{"one", 1, false},
		{"full participation", 6, false},
		{"one over population", 7, true},
		{"far over population", 600, true},
	}
	for _, tc := range cases {
		cfg := testConfig(t, NewFedTrip(0.4))
		cfg.Rounds = 1
		cfg.ClientsPerRound = tc.k
		_, err := Start(RunSpec{Config: cfg})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s (K=%d): err=%v wantErr=%v", tc.name, tc.k, err, tc.wantErr)
		}
	}
	// Defence in depth: even if the config is mutated after validation,
	// selection clamps to the population instead of panicking.
	s, err := NewServer(testConfig(t, NewFedTrip(0.4)))
	if err != nil {
		t.Fatal(err)
	}
	s.spec.ClientsPerRound = 99
	sel := s.selectClients()
	if len(sel) != len(s.clients) {
		t.Fatalf("clamped selection %d want %d", len(sel), len(s.clients))
	}
}

// The three xi schedules under an irregular participation trace: a client
// that participates at rounds 1, 2, 5, 11 (gaps -, 1, 3, 6) and one that
// never participated before.
func TestXiSchedulesIrregularTrace(t *testing.T) {
	trace := []int{1, 2, 5, 11}
	type want struct{ inv, gap float64 }
	wants := []want{
		{0, 0},       // first participation: no history, xi = 0
		{1, 1},       // gap 1
		{1.0 / 3, 3}, // gap 3
		{1.0 / 6, 6}, // gap 6
	}
	inv := NewFedTrip(0.4)
	gap := NewFedTrip(0.4)
	gap.Mode = XiGap
	fixed := NewFedTrip(0.4)
	fixed.Mode = XiFixed
	fixed.FixedXi = 0.7
	last := 0
	for i, r := range trace {
		if got := inv.Xi(r, last); got != wants[i].inv {
			t.Errorf("inverse-gap round %d (last %d): xi %v want %v", r, last, got, wants[i].inv)
		}
		if got := gap.Xi(r, last); got != wants[i].gap {
			t.Errorf("gap round %d (last %d): xi %v want %v", r, last, got, wants[i].gap)
		}
		wantFixed := 0.7
		if last == 0 {
			wantFixed = 0 // no historical model: the term must vanish
		}
		if got := fixed.Xi(r, last); got != wantFixed {
			t.Errorf("fixed round %d (last %d): xi %v want %v", r, last, got, wantFixed)
		}
		last = r
	}
	// Never-participated clients see xi = 0 under every mode, at any round.
	for _, f := range []*FedTrip{inv, gap, fixed} {
		if got := f.Xi(1000, 0); got != 0 {
			t.Errorf("mode %v never-participated xi %v want 0", f.Mode, got)
		}
	}
	// Same-round redispatch (async can redispatch before an aggregation
	// completes): the gap clamps to 1 rather than exploding or zeroing.
	if got := inv.Xi(7, 7); got != 1 {
		t.Errorf("gap clamp inverse: %v want 1", got)
	}
	if got := gap.Xi(7, 7); got != 1 {
		t.Errorf("gap clamp gap-mode: %v want 1", got)
	}
}
