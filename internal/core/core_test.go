package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// testConfig builds a small but realistic FL config on MNIST-like data
// with an MLP, 6 clients.
func testConfig(t *testing.T, algo Algorithm) Config {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 600, Test: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          5,
		ClientsPerRound: 3,
		BatchSize:       20,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            algo,
		Seed:            1,
	}
}

// firstClient returns client 0 of cfg's fleet, for tests that drive an
// algorithm's hooks by hand.
func firstClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Clients()[0]
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t, NewFedTrip(0.4))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	check := func(mutate func(*Config), what string) {
		c := testConfig(t, NewFedTrip(0.4))
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	check(func(c *Config) { c.Train = nil }, "nil train")
	check(func(c *Config) { c.Test = nil }, "nil test")
	check(func(c *Config) { c.Parts = nil }, "no partitions")
	check(func(c *Config) { c.Parts = [][]int{{1}, {}} }, "empty client")
	check(func(c *Config) { c.Rounds = 0 }, "zero rounds")
	check(func(c *Config) { c.ClientsPerRound = 0 }, "zero K")
	check(func(c *Config) { c.ClientsPerRound = 99 }, "K > N")
	check(func(c *Config) { c.BatchSize = 0 }, "zero batch")
	check(func(c *Config) { c.LocalEpochs = 0 }, "zero epochs")
	check(func(c *Config) { c.LR = 0 }, "zero lr")
	check(func(c *Config) { c.Momentum = 1 }, "momentum 1")
	check(func(c *Config) { c.Algo = nil }, "nil algo")
	check(func(c *Config) { c.Model.Classes = 1 }, "bad model")
}

func TestFedTripXiModes(t *testing.T) {
	f := NewFedTrip(0.4)
	if xi := f.Xi(10, 0); xi != 0 {
		t.Fatalf("never-participated xi = %v, want 0", xi)
	}
	if xi := f.Xi(10, 9); xi != 1 {
		t.Fatalf("gap 1 inverse xi = %v, want 1", xi)
	}
	if xi := f.Xi(10, 5); xi != 0.2 {
		t.Fatalf("gap 5 inverse xi = %v, want 0.2", xi)
	}
	f.Mode = XiGap
	if xi := f.Xi(10, 5); xi != 5 {
		t.Fatalf("gap-mode xi = %v, want 5", xi)
	}
	f.Mode = XiFixed
	f.FixedXi = 0.7
	if xi := f.Xi(10, 5); xi != 0.7 {
		t.Fatalf("fixed xi = %v, want 0.7", xi)
	}
	if XiInverseGap.String() != "inverse-gap" || XiGap.String() != "gap" || XiFixed.String() != "fixed" {
		t.Fatal("XiMode strings")
	}
	if XiMode(99).String() == "" {
		t.Fatal("unknown XiMode string empty")
	}
}

// FedTrip's TransformGrad must be the exact gradient of its triplet
// regularization term: verify against central finite differences of
// TripletLoss.
func TestFedTripGradientMatchesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	w := make([]float64, n)
	global := make([]float64, n)
	hist := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = rng.NormFloat64()
		global[i] = rng.NormFloat64()
		hist[i] = rng.NormFloat64()
	}
	const xi = 0.35
	f := NewFedTrip(0.7)
	f.Mode, f.FixedXi = XiFixed, xi
	cfg := testConfig(t, f)
	cfg.Model = nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 2, Width: 2, Classes: 10}
	c := firstClient(t, cfg)
	// Test the gradient math directly on a synthetic client state, in the
	// first n coordinates of model-sized vectors.
	nv := c.NumParams()
	if nv < n {
		t.Fatalf("model too small for test: %d", nv)
	}
	w = w[:n]
	gvec := make([]float64, nv)
	copy(gvec[:n], global)
	c.SetRoundGlobal(gvec)
	copy(c.State(1)[:n], hist)
	c.LastRound = 1

	wFull := make([]float64, nv)
	copy(wFull[:n], w)
	g := make([]float64, nv)
	f.TransformGrad(c, 2, wFull, g)

	const h = 1e-6
	for probe := 0; probe < 20; probe++ {
		i := rng.Intn(n)
		orig := wFull[i]
		wFull[i] = orig + h
		lp := f.TripletLoss(wFull, gvec, c.State(1), xi)
		wFull[i] = orig - h
		lm := f.TripletLoss(wFull, gvec, c.State(1), xi)
		wFull[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-g[i]) > 1e-6*math.Max(1, math.Abs(num)) {
			t.Fatalf("coord %d: analytic %v numeric %v", i, g[i], num)
		}
	}
}

func TestFedTripFirstParticipationIsProximal(t *testing.T) {
	f := NewFedTrip(0.5)
	cfg := testConfig(t, f)
	c := firstClient(t, cfg)
	nv := c.NumParams()
	global := make([]float64, nv)
	for i := range global {
		global[i] = 1
	}
	c.SetRoundGlobal(global)
	w := make([]float64, nv) // zeros
	g := make([]float64, nv)
	f.TransformGrad(c, 1, w, g)
	// g = mu*(w - global) = -0.5 everywhere.
	for i := range g {
		if math.Abs(g[i]-(-0.5)) > 1e-12 {
			t.Fatalf("g[%d]=%v want -0.5", i, g[i])
		}
	}
}

func TestAggregateWeightedByDataSize(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nv := len(s.Global())
	a := make([]float64, nv)
	b := make([]float64, nv)
	for i := range a {
		a[i] = 1
		b[i] = 4
	}
	s.aggregate(1, []Update{
		{ClientID: 0, Params: a, NumSamples: 30},
		{ClientID: 1, Params: b, NumSamples: 10},
	})
	// Weighted: (30*1 + 10*4)/40 = 1.75.
	for i := range s.Global() {
		if math.Abs(s.Global()[i]-1.75) > 1e-12 {
			t.Fatalf("aggregate[%d]=%v want 1.75", i, s.Global()[i])
		}
	}
}

func TestLocalTrainUpdatesHistory(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	if c.StateBytes() != 0 || c.LastRound != 0 {
		t.Fatal("fresh client must have no history")
	}
	u := c.LocalTrain(3, s.Global())
	if c.LastRound != 3 {
		t.Fatalf("LastRound = %d", c.LastRound)
	}
	if tensor.MaxAbsDiff(c.State(1), u.Params) != 0 {
		t.Fatal("FedTrip's w_hist must equal the uploaded parameters")
	}
	if u.NumSamples != c.NumSamples() || u.ClientID != 0 {
		t.Fatal("update metadata wrong")
	}
	if !tensor.AllFinite(u.Params) {
		t.Fatal("non-finite upload")
	}
	// Local training must actually move the parameters.
	if tensor.MaxAbsDiff(u.Params, s.Global()) == 0 {
		t.Fatal("local training did not change the model")
	}
}

func TestFullGradMatchesManualAndRestores(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.BatchSize = 7 // force multiple, uneven batches
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[1]
	before := c.Model().ParamsCopy()
	at := s.Global()
	g1 := c.FullGrad(at)
	if tensor.MaxAbsDiff(c.Model().ParamsCopy(), before) != 0 {
		t.Fatal("FullGrad must restore model parameters")
	}
	// Reference: single batch over all data.
	cfg2 := testConfig(t, NewFedTrip(0.4))
	cfg2.BatchSize = len(c.Indices)
	s2, err := NewServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	g2 := s2.Clients()[1].FullGrad(at)
	if d := tensor.MaxAbsDiff(g1, g2); d > 1e-10 {
		t.Fatalf("batched full grad differs from single-batch: %v", d)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err := Start(RunSpec{Config: testConfig(t, NewFedTrip(0.4))})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Start(RunSpec{Config: testConfig(t, NewFedTrip(0.4))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Accuracy {
		if r1.Accuracy[i] != r2.Accuracy[i] {
			t.Fatalf("round %d accuracy differs: %v vs %v", i+1, r1.Accuracy[i], r2.Accuracy[i])
		}
	}
	if r1.TotalGFLOPs() != r2.TotalGFLOPs() {
		t.Fatal("FLOPs not deterministic")
	}
}

func TestRunMetricsShape(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.TargetAccuracy = 0.05 // trivially reachable
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != cfg.Rounds {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if len(res.Accuracy) != cfg.Rounds || len(res.TrainLoss) != cfg.Rounds ||
		len(res.GFLOPsByRound) != cfg.Rounds || len(res.CommBytesByRound) != cfg.Rounds {
		t.Fatal("metric lengths wrong")
	}
	if res.RoundsToTarget != 1 {
		t.Fatalf("RoundsToTarget = %d want 1", res.RoundsToTarget)
	}
	if res.BestAccuracy <= 0 || res.FinalAccuracy <= 0 {
		t.Fatal("accuracies not recorded")
	}
	// GFLOPs must be positive and nondecreasing.
	prev := 0.0
	for _, g := range res.GFLOPsByRound {
		if g < prev {
			t.Fatal("GFLOPs decreased")
		}
		prev = g
	}
	if res.TotalGFLOPs() <= 0 {
		t.Fatal("no FLOPs metered")
	}
}

func TestStopAtTarget(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.TargetAccuracy = 0.01
	cfg.StopAtTarget = true
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("should stop after round 1, ran %d", res.Rounds)
	}
}

func TestCommAccountingFedAvgStyle(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4)) // no CommCoster: 2 transfers/client
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cfg.Model.Build(1)
	perRound := int64(cfg.ClientsPerRound) * 2 * int64(4*m.NumParams())
	want := perRound * int64(cfg.Rounds)
	if got := res.CommBytesByRound[len(res.CommBytesByRound)-1]; got != want {
		t.Fatalf("comm bytes %d want %d", got, want)
	}
}

// Failure injection: an algorithm that poisons the gradient with NaN.
// The merge path's graceful-degradation screen must reject every
// poisoned upload (counting it in RejectedUpdates) so the run survives
// with a finite global model, instead of dying at the divergence
// backstop the moment one client goes non-finite.
type poisonAlgo struct{ Base }

func (poisonAlgo) Name() string { return "poison" }
func (poisonAlgo) TransformGrad(c *Client, round int, w, g []float64) {
	g[0] = math.NaN()
}

func TestDivergenceDetected(t *testing.T) {
	cfg := testConfig(t, poisonAlgo{})
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatalf("non-finite uploads must be rejected, not kill the run: %v", err)
	}
	// Every upload is poisoned: 3 clients/round over 5 rounds, all
	// rejected, every merge a no-op on a still-finite model.
	want := cfg.ClientsPerRound * cfg.Rounds
	if res.RejectedUpdates != want {
		t.Fatalf("RejectedUpdates = %d want %d", res.RejectedUpdates, want)
	}
	for _, a := range res.Accuracy {
		if math.IsNaN(a) {
			t.Fatal("accuracy series went NaN — a rejected update reached the model")
		}
	}
}

func TestRoundsToTargetUnreached(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.TargetAccuracy = 1.01 // impossible
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToTarget != -1 {
		t.Fatalf("RoundsToTarget = %d want -1", res.RoundsToTarget)
	}
	if res.GFLOPsToTarget() != res.TotalGFLOPs() {
		t.Fatal("GFLOPsToTarget should fall back to total")
	}
	if res.CommBytesToTarget() != res.CommBytesByRound[len(res.CommBytesByRound)-1] {
		t.Fatal("CommBytesToTarget should fall back to total")
	}
}

func TestEvalEverySkipsEvaluations(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 4
	cfg.EvalEvery = 2
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 1 and 3 carry the previous eval (0 for round 1).
	if res.Accuracy[0] != 0 {
		t.Fatalf("round 1 should carry initial 0, got %v", res.Accuracy[0])
	}
	if res.Accuracy[1] == 0 {
		t.Fatal("round 2 must be evaluated")
	}
	if res.Accuracy[2] != res.Accuracy[1] {
		t.Fatal("round 3 should carry round 2's accuracy")
	}
}

// End-to-end learning check: 25 rounds of FedTrip on the easy MNIST-like
// task must clearly beat chance.
func TestFedTripLearnsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: learning outcome, not concurrency, under test")
	}
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 25
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy < 0.5 {
		t.Fatalf("best accuracy %.3f after 25 rounds — not learning", res.BestAccuracy)
	}
}

func TestSelectClientsDistinct(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		sel := s.selectClients()
		if len(sel) != cfg.ClientsPerRound {
			t.Fatalf("selected %d", len(sel))
		}
		seen := map[int]bool{}
		for _, c := range sel {
			if seen[c.ID] {
				t.Fatal("client selected twice in one round")
			}
			seen[c.ID] = true
		}
	}
}

func TestClientStateAndAccessors(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	n := c.NumParams()
	if c.StateBytes() != 0 {
		t.Fatal("state reported before the method asked for it")
	}
	v := c.State(2)
	if len(v) != 2*n || c.StateBytes() != 16*n {
		t.Fatalf("State(2) holds %d floats (%d bytes), want %d", len(v), c.StateBytes(), 2*n)
	}
	v[n] = 5
	if again := c.State(2); &again[0] != &v[0] || again[n] != 5 {
		t.Fatal("state moved or did not persist")
	}
	if c.State(1)[0] != 0 || c.StateBytes() != 16*n {
		t.Fatal("a shorter request must read the same storage")
	}
	if c.Config() != &s.cfg {
		t.Fatal("Config accessor")
	}
	if c.RNG() == nil {
		t.Fatal("RNG accessor")
	}
}

func TestScratchModelsStable(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	c := firstClient(t, cfg)
	a1, b1 := c.ScratchModels()
	a2, b2 := c.ScratchModels()
	if a1 != a2 || b1 != b2 {
		t.Fatal("scratch models must be cached")
	}
	if a1 == b1 {
		t.Fatal("scratch models must be distinct instances")
	}
	if a1.NumParams() != c.NumParams() {
		t.Fatal("scratch architecture mismatch")
	}
}
