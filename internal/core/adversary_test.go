package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// --- fault-model grammar ---

func TestParseFaultsGrammar(t *testing.T) {
	cases := []struct {
		spec string
		want FaultModel
	}{
		{"byz:0.2,signflip", FaultModel{ByzFraction: 0.2, Mode: "signflip"}},
		{"byz:0.3,scale:10", FaultModel{ByzFraction: 0.3, Mode: "scale", Arg: 10}},
		{"byz:0.1,noise:0.5", FaultModel{ByzFraction: 0.1, Mode: "noise", Arg: 0.5}},
		{"byz:0.05,nan", FaultModel{ByzFraction: 0.05, Mode: "nan"}},
		{"byz:0.25,labelflip", FaultModel{ByzFraction: 0.25, Mode: "labelflip"}},
		{"crash:0.1", FaultModel{CrashFraction: 0.1}},
		{"byz:0.2,signflip+crash:0.05", FaultModel{ByzFraction: 0.2, Mode: "signflip", CrashFraction: 0.05}},
		{"byz:0,signflip", FaultModel{ByzFraction: 0, Mode: "signflip"}},
	}
	for _, tc := range cases {
		m, err := ParseFaults(tc.spec)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", tc.spec, err)
		}
		if *m != tc.want {
			t.Fatalf("ParseFaults(%q) = %+v, want %+v", tc.spec, *m, tc.want)
		}
		// String renders the canonical grammar: reparsing must round-trip.
		m2, err := ParseFaults(m.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", m.String(), tc.spec, err)
		}
		if *m2 != *m {
			t.Fatalf("String round-trip %q -> %q -> %+v", tc.spec, m.String(), *m2)
		}
	}
	for _, spec := range []string{"", "none"} {
		m, err := ParseFaults(spec)
		if err != nil || m != nil {
			t.Fatalf("ParseFaults(%q) = %v, %v, want nil, nil", spec, m, err)
		}
	}
}

func TestParseFaultsErrors(t *testing.T) {
	bad := []string{
		"byz:0.2",                       // missing mode
		"byz:0.2,warp",                  // unknown mode
		"byz:0.2,scale",                 // scale needs an argument
		"byz:0.2,scale:0",               // nonpositive factor
		"byz:0.2,noise:-1",              // nonpositive sigma
		"byz:0.2,signflip:3",            // signflip takes no argument
		"byz:1.5,signflip",              // fraction out of range
		"byz:0.6,signflip+crash:0.6",    // fractions exceed 1
		"crash:-0.1",                    // fraction out of range
		"crash:x",                       // not a number
		"byz:0.1,nan+byz:0.1,nan",       // repeated segment
		"crash:0.1+crash:0.1",           // repeated segment
		"drop:0.1",                      // unknown segment
		"byz:0.2,signflip+latency:exp2", // unknown segment
	}
	for _, spec := range bad {
		if _, err := ParseFaults(spec); err == nil {
			t.Fatalf("ParseFaults(%q) accepted", spec)
		}
	}
}

// TestSampleFaultsDeterministic: the assignment is a pure function of
// (population, model, seed), drawn in client-ID order from the dedicated
// adversary stream, with empirical fractions near the configured ones.
func TestSampleFaultsDeterministic(t *testing.T) {
	m := &FaultModel{ByzFraction: 0.2, Mode: "signflip", CrashFraction: 0.1}
	a := sampleFaults(1000, m, 7)
	b := sampleFaults(1000, m, 7)
	byz, crash := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client %d: assignment %d vs %d on the same seed", i, a[i], b[i])
		}
		switch a[i] {
		case faultSignFlip:
			byz++
		case faultCrash:
			crash++
		}
	}
	if byz < 150 || byz > 250 {
		t.Fatalf("byzantine count %d far from expected 200", byz)
	}
	if crash < 60 || crash > 140 {
		t.Fatalf("crash count %d far from expected 100", crash)
	}
	c := sampleFaults(1000, m, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical assignment")
	}
}

// --- robust merge arithmetic (hand-computed pins) ---

// mustPolicy parses a policy text the test itself wrote.
func mustPolicy(t testing.TB, text string) Policy {
	t.Helper()
	p, err := ParsePolicy(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// robustMergeServer builds a tiny run whose server merges under the given
// policy text, with the global model zeroed so merge results are pure
// functions of the synthetic updates.
func robustMergeServer(t *testing.T, policy string) (*RunState, *Server) {
	t.Helper()
	spec := RunSpec{Config: snapTestConfig(t, 2), Policy: mustPolicy(t, policy)}
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	s := rs.Server()
	for i := range s.global {
		s.global[i] = 0
	}
	return rs, s
}

// constUpdates builds one constant-vector update per value (equal data
// sizes, so weights are uniform and only the estimator matters).
func constUpdates(n int, vals ...float64) []Update {
	us := make([]Update, len(vals))
	for i, v := range vals {
		p := make([]float64, n)
		for j := range p {
			p[j] = v
		}
		us[i] = Update{ClientID: i, Params: p, NumSamples: 10}
	}
	return us
}

func requireGlobalConst(t *testing.T, s *Server, want float64, label string) {
	t.Helper()
	for i, v := range s.global {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("%s: global[%d] = %g, want %g", label, i, v, want)
		}
	}
}

func TestMedianMergePins(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"odd", []float64{1, 4, 10}, 4},
		{"even", []float64{1, 3, 7, 9}, 5},
		{"ties", []float64{2, 2, 5}, 2},
		{"single", []float64{6}, 6},
		{"unsorted", []float64{9, 1, 7, 3}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, s := robustMergeServer(t, "median")
			s.aggregate(1, constUpdates(len(s.global), tc.vals...))
			requireGlobalConst(t, s, tc.want, "median")
		})
	}
}

func TestTrimmedMeanMergePins(t *testing.T) {
	cases := []struct {
		name string
		frac float64
		vals []float64
		want float64
	}{
		// g = int(0.25*4) = 1: drop 1 and 9, mean(3, 7) = 5.
		{"quarter-of-four", 0.25, []float64{1, 3, 7, 9}, 5},
		// g = int(0.2*5) = 1: drop -100 and 100, mean(2, 3, 4) = 3.
		{"outliers-both-tails", 0.2, []float64{-100, 2, 3, 4, 100}, 3},
		// g = int(0.4*3) = 1, window [1,1]: degenerates to the median.
		{"degenerate-to-median", 0.4, []float64{1, 5, 30}, 5},
		// g = 0: plain mean.
		{"no-trim", 0.1, []float64{2, 4}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, s := robustMergeServer(t, fmt.Sprintf("trimmedmean:%g", tc.frac))
			s.aggregate(1, constUpdates(len(s.global), tc.vals...))
			requireGlobalConst(t, s, tc.want, "trimmedmean")
		})
	}
}

// TestKrumMergePin: a cluster of four near-identical updates plus one
// far outlier; krum:0.2 on a buffer of 5 filters exactly the outlier and
// averages the cluster.
func TestKrumMergePin(t *testing.T) {
	_, s := robustMergeServer(t, "krum:0.2")
	s.aggregate(1, constUpdates(len(s.global), 0.1, 0.12, 0.08, 0.1, 50))
	requireGlobalConst(t, s, (0.1+0.12+0.08+0.1)/4, "krum")
}

// TestNormClipGuard: fedavg+clip rescales an update onto the admissible
// ball around the global model before the merge; updates inside the ball
// are untouched.
func TestNormClipGuard(t *testing.T) {
	maxNorm := 1.0
	_, s := robustMergeServer(t, fmt.Sprintf("fedavg+clip:%g", maxNorm))
	n := len(s.global)
	// u1 sits at distance 3*sqrt(n) (clipped onto the ball: each
	// coordinate becomes 1/sqrt(n)); u2 is well inside (untouched).
	inside := 0.5 / math.Sqrt(float64(n))
	s.aggregate(1, constUpdates(n, 3, inside))
	want := (maxNorm/math.Sqrt(float64(n)) + inside) / 2
	requireGlobalConst(t, s, want, "clip")
}

// TestNonFiniteRejection: nan and crash uploads are zero-weighted out and
// counted; the finite updates still merge exactly.
func TestNonFiniteRejection(t *testing.T) {
	_, s := robustMergeServer(t, "fedavg")
	us := constUpdates(len(s.global), 2, 4)
	bad := make([]float64, len(s.global))
	for i := range bad {
		bad[i] = math.NaN()
	}
	us = append(us, Update{ClientID: 2, Params: bad, NumSamples: 10})
	s.aggregate(1, us)
	requireGlobalConst(t, s, 3, "screened fedavg")
	if s.rejectedUpdates != 1 {
		t.Fatalf("rejectedUpdates = %d, want 1", s.rejectedUpdates)
	}
	// An all-rejected buffer merges as a no-op, not a NaN model.
	s.aggregate(2, []Update{{ClientID: 2, Params: bad, NumSamples: 10}})
	requireGlobalConst(t, s, 3, "all-rejected merge")
	if s.rejectedUpdates != 2 {
		t.Fatalf("rejectedUpdates = %d, want 2", s.rejectedUpdates)
	}
}

// --- fault application semantics ---

// faultServer builds a server with a forced single-class assignment so a
// specific fault can be exercised without stream lottery.
func faultServer(t *testing.T, m *FaultModel, class faultClass) *Server {
	t.Helper()
	spec := RunSpec{Config: snapTestConfig(t, 2)}
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	s := rs.Server()
	s.spec.Faults = m
	s.faults = make([]faultClass, len(s.clients))
	s.faults[0] = class
	return s
}

func TestApplyFaultSemantics(t *testing.T) {
	base := []float64{1, -2, 3}
	mk := func() *Update { return &Update{ClientID: 0, Params: append([]float64(nil), base...)} }

	t.Run("signflip", func(t *testing.T) {
		s := faultServer(t, &FaultModel{ByzFraction: 1, Mode: "signflip"}, faultSignFlip)
		u := mk()
		s.applyFault(s.client(0), u)
		for i := range base {
			if u.Params[i] != -base[i] {
				t.Fatalf("signflip[%d] = %g, want %g", i, u.Params[i], -base[i])
			}
		}
	})
	t.Run("scale", func(t *testing.T) {
		s := faultServer(t, &FaultModel{ByzFraction: 1, Mode: "scale", Arg: 10}, faultScale)
		u := mk()
		s.applyFault(s.client(0), u)
		for i := range base {
			if u.Params[i] != 10*base[i] {
				t.Fatalf("scale[%d] = %g, want %g", i, u.Params[i], 10*base[i])
			}
		}
	})
	t.Run("nan", func(t *testing.T) {
		s := faultServer(t, &FaultModel{ByzFraction: 1, Mode: "nan"}, faultNaN)
		u := mk()
		s.applyFault(s.client(0), u)
		for i := range u.Params {
			if !math.IsNaN(u.Params[i]) {
				t.Fatalf("nan[%d] = %g, want NaN", i, u.Params[i])
			}
		}
	})
	t.Run("crash", func(t *testing.T) {
		s := faultServer(t, &FaultModel{CrashFraction: 1}, faultCrash)
		u := mk()
		s.applyFault(s.client(0), u)
		finite := false
		for _, v := range u.Params {
			if !math.IsInf(v, 0) {
				finite = true
			}
		}
		if finite {
			t.Fatal("crash upload still carries finite values")
		}
		if len(u.Params) != len(base) {
			t.Fatalf("crash upload truncated to %d of %d params", len(u.Params), len(base))
		}
	})
	t.Run("honest-untouched", func(t *testing.T) {
		s := faultServer(t, &FaultModel{ByzFraction: 1, Mode: "signflip"}, faultSignFlip)
		u := mk()
		s.applyFault(s.client(1), u) // client 1 is honest
		for i := range base {
			if u.Params[i] != base[i] {
				t.Fatalf("honest client's upload mutated at %d", i)
			}
		}
	})
}

func TestRotateLabels(t *testing.T) {
	y := []int{0, 1, 9, 4}
	rotateLabels(y, 3, 10)
	want := []int{3, 4, 2, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("rotateLabels[%d] = %d, want %d", i, y[i], want[i])
		}
	}
}

// --- end-to-end pins ---

// TestZeroByzantineMatchesBaseline: enabling a zero-fraction fault model
// must leave the async trajectory bit-for-bit identical — the adversary
// draws only from its own stream.
func TestZeroByzantineMatchesBaseline(t *testing.T) {
	mkSpec := func() RunSpec {
		return RunSpec{
			Config:      snapTestConfig(t, 6),
			Runtime:     RuntimeAsync,
			Concurrency: 4,
			BufferSize:  2,
			Latency:     mustFleet(ParseLatency("exp:2")),
		}
	}
	base, err := Start(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"byz:0,signflip", "byz:0,scale:10", "byz:0,noise:1", "byz:0,nan", "byz:0,labelflip", "crash:0"} {
		fm, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		sp := mkSpec()
		sp.Faults = fm
		adv, err := Start(sp)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if adv.Digest() != base.Digest() {
			t.Fatalf("zero-adversary run %q diverged from baseline: digest %s vs %s", spec, adv.Digest(), base.Digest())
		}
	}
}

// TestAdversarialRunSurvives: a fleet with every fault family active
// (nan + crash arrive non-finite; they must be rejected, the run must
// finish, and the model must stay finite).
func TestAdversarialRunSurvives(t *testing.T) {
	fm, err := ParseFaults("byz:0.3,nan+crash:0.2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Start(RunSpec{
		Config:      snapTestConfig(t, 6),
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("exp:2")),
		Faults:      fm,
	})
	if err != nil {
		t.Fatalf("adversarial run must survive: %v", err)
	}
	if res.RejectedUpdates == 0 {
		t.Fatal("a 50% non-finite fleet produced zero rejections")
	}
	// Rejected uploads still trained and still rode the wire.
	if res.TotalGFLOPs() == 0 || res.CommBytesByRound[len(res.CommBytesByRound)-1] == 0 {
		t.Fatal("faulty clients' compute/comm went unmetered")
	}
	for _, a := range res.Accuracy {
		if math.IsNaN(a) {
			t.Fatal("accuracy series went NaN")
		}
	}
}

// TestFaultsRejectAggregatorOverride: Aggregator methods bypass the
// weighted-merge funnel and with it the non-finite screen, so the spec
// must refuse the combination up front.
func TestFaultsRejectAggregatorOverride(t *testing.T) {
	fm, _ := ParseFaults("byz:0.2,nan")
	cfg := snapTestConfig(t, 2)
	cfg.Algo = aggAlgo{}
	_, err := Start(RunSpec{Config: cfg, Faults: fm})
	if err == nil || !strings.Contains(err.Error(), "fault screen") {
		t.Fatalf("Aggregator + faults accepted (err=%v)", err)
	}
}

// TestResumeEquivalenceAdversarial is the ISSUE's resume pin: a churning
// fleet with 20% sign-flipping Byzantine clients under trimmed-mean — an
// uninterrupted run, snapshot-and-continue, and a fresh-process resume
// must all agree bit-for-bit.
func TestResumeEquivalenceAdversarial(t *testing.T) {
	fm, err := ParseFaults("byz:0.2,signflip")
	if err != nil {
		t.Fatal(err)
	}
	runResumeScenario(t, RunSpec{
		Config:      snapTestConfig(t, 8),
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("exp:2")),
		Policy:      mustPolicy(t, "trimmedmean:0.25"),
		Faults:      fm,
		Churn: &ChurnModel{
			MeanUp:   30,
			MeanDown: 8,
			Drops:    []MassDrop{{At: 4, Fraction: 0.5, Duration: 6}},
		},
	}, 4)
}

// TestResumeEquivalenceNoiseFault exercises the adversary RNG section of
// the snapshot: noise clients' private stream positions must serialize,
// or the resumed run's corrupted uploads diverge.
func TestResumeEquivalenceNoiseFault(t *testing.T) {
	fm, err := ParseFaults("byz:0.4,noise:0.3")
	if err != nil {
		t.Fatal(err)
	}
	runResumeScenario(t, RunSpec{
		Config:      snapTestConfig(t, 6),
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     mustFleet(ParseLatency("exp:2")),
		Policy:      mustPolicy(t, "median"),
		Faults:      fm,
	}, 3)
}

// TestRobustRecovery is the ISSUE's recovery pin: under byz:0.3,scale:10
// the trimmed mean holds the accuracy target that plain fedavg cannot
// reach.
func TestRobustRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("learning pin; skipped in -short")
	}
	fm, err := ParseFaults("byz:0.3,scale:10")
	if err != nil {
		t.Fatal(err)
	}
	mkSpec := func(policy string) RunSpec {
		// Corpus seed 67 puts the two policies clear of the line on both
		// sides: trimmed mean peaks at 0.6067, plain fedavg at 0.4467.
		cfg := snapTestConfigOn(t, 16, 67)
		cfg.ClientsPerRound = 6
		cfg.TargetAccuracy = 0.55
		// Small merge buffers let the two scale:10 attackers dominate
		// individual merges — that is what breaks the plain mean; the
		// trimmed mean (g = 1 on k = 4) sheds the extremes each time.
		return RunSpec{
			Config:      cfg,
			Runtime:     RuntimeAsync,
			Concurrency: 6,
			BufferSize:  4,
			Latency:     mustFleet(ParseLatency("exp:2")),
			Policy:      mustPolicy(t, policy),
			Faults:      fm,
		}
	}
	robust, err := Start(mkSpec("trimmedmean:0.34"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Start(mkSpec("fedavg"))
	if err != nil {
		t.Fatal(err)
	}
	if robust.RoundsToTarget < 0 {
		t.Fatalf("trimmed mean never reached %.2f under byz:0.3,scale:10 (best %.4f)", robust.TargetAccuracy, robust.BestAccuracy)
	}
	if plain.RoundsToTarget >= 0 {
		t.Fatalf("plain fedavg reached %.2f under byz:0.3,scale:10 (round %d) — the attack is too weak to pin robustness", plain.TargetAccuracy, plain.RoundsToTarget)
	}
}

// TestPolicyParseRobust covers the robust kinds and the two guards: what
// parses prints itself back, the guards in the value's fixed order
// whatever order they were written in.
func TestPolicyParseRobust(t *testing.T) {
	good := []struct {
		spec string
		text string
	}{
		{"median", "median"},
		{"trimmedmean:0.25", "trimmedmean:0.25"},
		{"krum:0.2", "krum:0.2"},
		{"clip:5", "clip:5"},
		{"trimmedmean:0.25+clip:5", "trimmedmean:0.25+clip:5"},
		{"fedbuff+clip:5", "fedbuff+clip:5"},
		{"fedbuff:0.5+maxstale:8+clip:5", "fedbuff:0.5+maxstale:8+clip:5"},
		{"fedbuff:0.5+clip:5+maxstale:8", "fedbuff:0.5+maxstale:8+clip:5"},
		{"median+maxstale:4", "median+maxstale:4"},
		{"maxstale:0+clip:1", "maxstale:0+clip:1"},
	}
	for _, tc := range good {
		if got := mustPolicy(t, tc.spec).String(); got != tc.text {
			t.Fatalf("ParsePolicy(%q) prints %q, want %q", tc.spec, got, tc.text)
		}
	}
	bad := []string{
		"trimmedmean",                   // needs a fraction
		"trimmedmean:0.5",               // fraction must be < 0.5
		"krum:-0.1",                     // negative fraction
		"median:3",                      // takes no args
		"clip:0",                        // bound must be positive
		"clip",                          // needs a bound
		"fedbuff+clip",                  // suffix needs a bound
		"fedbuff+clamp:3",               // unknown suffix
		"median+clip:-2",                // negative bound
		"trimmedmean:0.25+maxstale:x",   // non-integer cutoff
		"fedavg+clip:1+clip:5",          // one clip bound per policy
		"fedbuff+maxstale:8+maxstale:2", // one cutoff per policy
		"clip:5+fedavg",                 // the base comes first
	}
	for _, spec := range bad {
		if _, err := ParsePolicy(spec); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", spec)
		}
	}
	for spec, dup := range map[string]string{"fedavg+clip:1+clip:5": "duplicate clip", "fedbuff+maxstale:8+maxstale:2": "duplicate maxstale"} {
		if _, err := ParsePolicy(spec); !strings.Contains(err.Error(), dup) {
			t.Fatalf("ParsePolicy(%q): %v, want an error naming the %s", spec, err, dup)
		}
	}
}

// --- a naive oracle for the merge path's defenses ---

// naiveMerge is the reference the merge path is differentially tested
// against: admit the finite rows inside the staleness cutoff, clip them
// onto the ball around the global model, aggregate with sort.Float64s
// and brute force, move the global model by eta. It shares no code with
// screenUpdates, mergeRobust, coordWindowInto or krumInto.
func naiveMerge(p Policy, global []float64, updates []Update, eta float64) []float64 {
	var rows [][]float64
	var sizes []float64
	for _, u := range updates {
		finite := true
		for _, v := range u.Params {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if !finite || p.Cutoff && u.Staleness > p.MaxStale {
			continue
		}
		row := append([]float64(nil), u.Params...)
		var sq float64
		for j, v := range row {
			sq += (v - global[j]) * (v - global[j])
		}
		if n := math.Sqrt(sq); p.Clip > 0 && n > p.Clip {
			for j := range row {
				row[j] = global[j] + p.Clip/n*(row[j]-global[j])
			}
		}
		rows, sizes = append(rows, row), append(sizes, float64(u.NumSamples))
	}
	out := append([]float64(nil), global...)
	k := len(rows)
	if k == 0 {
		return out
	}
	agg := make([]float64, len(global))
	mean := func(pick []int) {
		for _, i := range pick {
			for j := range agg {
				agg[j] += rows[i][j] / float64(len(pick))
			}
		}
	}
	sortedColumn := func(j int) []float64 {
		col := make([]float64, k)
		for i := range rows {
			col[i] = rows[i][j]
		}
		sort.Float64s(col)
		return col
	}
	switch p.Kind {
	case PolicyMedian:
		for j := range agg {
			col := sortedColumn(j)
			agg[j] = (col[(k-1)/2] + col[k/2]) / 2
		}
	case PolicyTrimmedMean:
		g := int(p.Arg * float64(k))
		if 2*g >= k {
			g = (k - 1) / 2
		}
		for j := range agg {
			for _, v := range sortedColumn(j)[g : k-g] {
				agg[j] += v / float64(k-2*g)
			}
		}
	case PolicyKrum:
		f := min(int(p.Arg*float64(k)), k-1)
		closest := min(max(k-f-2, 1), k-1)
		score := make([]float64, k)
		order := make([]int, k)
		for i := range rows {
			var dists []float64
			for o := range rows {
				if o == i {
					continue
				}
				var sq float64
				for x := range rows[i] {
					sq += (rows[i][x] - rows[o][x]) * (rows[i][x] - rows[o][x])
				}
				dists = append(dists, sq)
			}
			sort.Float64s(dists)
			for _, d := range dists[:closest] {
				score[i] += d
			}
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
		mean(order[:k-f])
	default: // the data-size mean
		var total float64
		for _, n := range sizes {
			total += n
		}
		for i := range rows {
			for j := range agg {
				agg[j] += sizes[i] / total * rows[i][j]
			}
		}
	}
	for j := range out {
		out[j] += eta * (agg[j] - out[j])
	}
	return out
}

// TestRobustMergesMatchNaiveOracle: on random buffers of 1-9 updates —
// values on a coarse grid so columns tie, a row past the staleness
// cutoff, a non-finite row — median, trimmed mean, multi-Krum and the
// clip guard agree with naiveMerge, and every non-finite row is counted.
func TestRobustMergesMatchNaiveOracle(t *testing.T) {
	bases := []string{"median", "trimmedmean:0", "trimmedmean:0.1", "trimmedmean:0.25", "trimmedmean:0.49", "krum:0", "krum:0.2", "krum:0.45", "fedavg"}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text := bases[rng.Intn(len(bases))] + "+maxstale:2"
		if rng.Intn(2) == 0 {
			text += fmt.Sprintf("+clip:%g", 0.5+2*rng.Float64())
		}
		p := resolvedPolicy(t, text, 1)
		eta := 1.0
		if rng.Intn(2) == 0 {
			eta = 0.5
			p.ServerLR = Rule{F: func(int) float64 { return 0.5 }}
		}
		grid := func() float64 { return float64(rng.Intn(9)-4) / 2 }
		const dim = 4
		s := tinyServer(grid(), grid(), grid(), grid())
		s.spec.Policy = p
		updates := make([]Update, 1+rng.Intn(9))
		nonFinite := 0
		for i := range updates {
			u := Update{ClientID: i, Params: make([]float64, dim), NumSamples: 1 + rng.Intn(3)}
			for j := range u.Params {
				u.Params[j] = grid()
			}
			switch rng.Intn(6) {
			case 0:
				u.Staleness = 3 + rng.Intn(4) // past the cutoff: weighs 0
			case 1:
				u.Params[rng.Intn(dim)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				nonFinite++
			default:
				u.Staleness = rng.Intn(3)
			}
			updates[i] = u
		}
		want := naiveMerge(p, s.global, updates, eta)
		s.aggregate(1, updates)
		for j := range want {
			if math.Abs(s.global[j]-want[j]) > 1e-12 {
				t.Errorf("seed %d, %s over %d updates: global[%d] = %v, oracle %v", seed, p, len(updates), j, s.global[j], want[j])
				return false
			}
		}
		if s.rejectedUpdates != nonFinite {
			t.Errorf("seed %d: %d rejected, %d non-finite rows", seed, s.rejectedUpdates, nonFinite)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Fatal(err)
	}
}
