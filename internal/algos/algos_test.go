package algos

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func testConfig(t *testing.T, algo core.Algorithm) core.Config {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 480, Test: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          3,
		ClientsPerRound: 3,
		BatchSize:       20,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            algo,
		Seed:            1,
	}
}

func TestRegistryAllNames(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, Params{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := New("bogus", Params{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRegistryDefaults(t *testing.T) {
	a, _ := New("fedprox", Params{})
	if a.(*FedProx).Mu != 0.1 {
		t.Fatal("fedprox default mu")
	}
	m, _ := New("moon", Params{})
	if mm := m.(*MOON); mm.Mu != 1 || mm.Tau != 0.5 {
		t.Fatal("moon defaults")
	}
	d, _ := New("feddyn", Params{})
	if d.(*FedDyn).Alpha != 0.1 {
		t.Fatal("feddyn default alpha")
	}
	s, _ := New("slowmo", Params{})
	if sm := s.(*SlowMo); sm.Beta != 0.5 || sm.SlowLR != 1 {
		t.Fatal("slowmo defaults")
	}
	// Overrides stick.
	p, _ := New("fedprox", Params{Mu: 0.9})
	if p.(*FedProx).Mu != 0.9 {
		t.Fatal("fedprox override")
	}
}

// Every method must run end-to-end for a few rounds without diverging.
func TestAllAlgorithmsSmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			algo, err := New(name, Params{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Start(core.RunSpec{Config: testConfig(t, algo)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != 3 {
				t.Fatalf("ran %d rounds", res.Rounds)
			}
			for _, a := range res.Accuracy {
				if math.IsNaN(a) || a < 0 || a > 1 {
					t.Fatalf("bad accuracy %v", a)
				}
			}
			if res.TotalGFLOPs() <= 0 {
				t.Fatal("no FLOPs metered")
			}
		})
	}
}

func TestFedProxGradFormula(t *testing.T) {
	f := &FedProx{Mu: 0.5}
	cfg := testConfig(t, f)
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	n := c.NumParams()
	global := make([]float64, n)
	w := make([]float64, n)
	for i := range global {
		global[i] = 1
		w[i] = 3
	}
	c.SetRoundGlobal(global)
	f.BeginRound(c, 1, global)
	g := make([]float64, n)
	f.TransformGrad(c, 1, w, g)
	for i := range g {
		if math.Abs(g[i]-1.0) > 1e-12 { // 0.5*(3-1)
			t.Fatalf("g[%d]=%v want 1", i, g[i])
		}
	}
}

// MOON's analytic contrastive gradient must match finite differences of
// ContrastiveLoss.
func TestMOONContrastiveGradient(t *testing.T) {
	m := &MOON{Mu: 1.3, Tau: 0.5}
	rng := rand.New(rand.NewSource(5))
	n, d := 4, 7
	z := tensor.New(n, d)
	zg := tensor.New(n, d)
	zp := tensor.New(n, d)
	z.RandNormal(rng, 1)
	zg.RandNormal(rng, 1)
	zp.RandNormal(rng, 1)
	grad := tensor.New(n, d)
	scale := m.Mu / float64(n)
	for i := 0; i < n; i++ {
		contrastiveGrad(
			z.Data[i*d:(i+1)*d], zg.Data[i*d:(i+1)*d], zp.Data[i*d:(i+1)*d],
			m.Tau, scale, grad.Data[i*d:(i+1)*d])
	}
	const h = 1e-6
	for probe := 0; probe < 40; probe++ {
		i := rng.Intn(n * d)
		orig := z.Data[i]
		z.Data[i] = orig + h
		lp := m.ContrastiveLoss(z, zg, zp)
		z.Data[i] = orig - h
		lm := m.ContrastiveLoss(z, zg, zp)
		z.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5*math.Max(1, math.Abs(num)) {
			t.Fatalf("coord %d: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

// When the previous model equals the global model (first participation),
// MOON's contrastive gradient is exactly zero.
func TestMOONFirstRoundZeroGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 9
	z := make([]float64, d)
	a := make([]float64, d)
	for i := range z {
		z[i] = rng.NormFloat64()
		a[i] = rng.NormFloat64()
	}
	o := make([]float64, d)
	contrastiveGrad(z, a, a, 0.5, 1, o)
	for i, v := range o {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("o[%d]=%v, want 0 when z_glob == z_prev", i, v)
		}
	}
}

func TestMOONDegenerateRepresentation(t *testing.T) {
	d := 5
	o := make([]float64, d)
	contrastiveGrad(make([]float64, d), make([]float64, d), make([]float64, d), 0.5, 1, o)
	for _, v := range o {
		if v != 0 {
			t.Fatal("degenerate vectors must contribute nothing")
		}
	}
}

func TestMOONFeatureGradWiring(t *testing.T) {
	m, _ := New("moon", Params{})
	cfg := testConfig(t, m)
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	u := c.LocalTrain(1, s.Global())
	if !tensor.AllFinite(u.Params) {
		t.Fatal("MOON round produced non-finite params")
	}
	// Second participation uses a real historical model.
	u2 := c.LocalTrain(2, s.Global())
	if !tensor.AllFinite(u2.Params) {
		t.Fatal("MOON second round non-finite")
	}
}

// MOON must meter dramatically more FLOPs than FedProx (2 extra forward
// passes per batch) — the resource story of Table V.
func TestMOONCostsMoreThanFedProx(t *testing.T) {
	moonAlgo, _ := New("moon", Params{})
	rMoon, err := core.Start(core.RunSpec{Config: testConfig(t, moonAlgo)})
	if err != nil {
		t.Fatal(err)
	}
	proxAlgo, _ := New("fedprox", Params{})
	rProx, err := core.Start(core.RunSpec{Config: testConfig(t, proxAlgo)})
	if err != nil {
		t.Fatal(err)
	}
	if rMoon.TotalGFLOPs() < 1.4*rProx.TotalGFLOPs() {
		t.Fatalf("MOON GFLOPs %.3f not clearly above FedProx %.3f", rMoon.TotalGFLOPs(), rProx.TotalGFLOPs())
	}
}

func TestFedDynGradAndState(t *testing.T) {
	f := &FedDyn{Alpha: 0.2}
	cfg := testConfig(t, f)
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	n := c.NumParams()
	global := make([]float64, n)
	for i := range global {
		global[i] = 1
	}
	c.SetRoundGlobal(global)
	f.BeginRound(c, 1, global)
	w := make([]float64, n)
	for i := range w {
		w[i] = 2
	}
	g := make([]float64, n)
	f.TransformGrad(c, 1, w, g)
	// h_k = 0 initially: g = alpha*(w-global) = 0.2.
	for i := range g {
		if math.Abs(g[i]-0.2) > 1e-12 {
			t.Fatalf("g[%d]=%v want 0.2", i, g[i])
		}
	}
	// EndRound: h_k -= alpha*(w_k - global); with model params set to w.
	c.Model().SetParams(w)
	f.EndRound(c, 1)
	hk := c.StateVec("feddyn.h")
	for i := range hk {
		if math.Abs(hk[i]-(-0.2)) > 1e-12 {
			t.Fatalf("h[%d]=%v want -0.2", i, hk[i])
		}
	}
}

func TestFedDynAggregateFormula(t *testing.T) {
	f := &FedDyn{Alpha: 0.5}
	global := []float64{1, 1}
	updates := []core.Update{
		{Params: []float64{2, 0}, NumSamples: 10},
		{Params: []float64{4, 2}, NumSamples: 10},
	}
	next := f.Aggregate(1, global, updates)
	// mean = (3,1); h = 0 - 0.5*((3,1)-(1,1)) = (-1,0);
	// next = mean - h/alpha = (3,1) - (-2,0) = (5,1).
	if math.Abs(next[0]-5) > 1e-12 || math.Abs(next[1]-1) > 1e-12 {
		t.Fatalf("next=%v", next)
	}
}

func TestSlowMoBetaZeroIsFedAvg(t *testing.T) {
	s := &SlowMo{Beta: 0, SlowLR: 1}
	global := []float64{0, 0}
	updates := []core.Update{
		{Params: []float64{1, 1}, NumSamples: 30},
		{Params: []float64{4, 0}, NumSamples: 10},
	}
	next := s.Aggregate(1, global, updates)
	// Weighted avg: (30*1+10*4)/40 = 1.75; (30*1+10*0)/40 = 0.75.
	if math.Abs(next[0]-1.75) > 1e-12 || math.Abs(next[1]-0.75) > 1e-12 {
		t.Fatalf("next=%v", next)
	}
}

func TestSlowMoMomentumAccumulates(t *testing.T) {
	s := &SlowMo{Beta: 0.5, SlowLR: 1}
	global := []float64{1}
	updates := []core.Update{{Params: []float64{0}, NumSamples: 1}}
	// Round 1: d=1-0=1; m=1; next = 1-1 = 0.
	n1 := s.Aggregate(1, global, updates)
	if math.Abs(n1[0]-0) > 1e-12 {
		t.Fatalf("round1 %v", n1)
	}
	// Round 2 from global=0, avg=0: d=0; m=0.5; next = 0-0.5 = -0.5
	// (momentum keeps pushing past the average).
	n2 := s.Aggregate(2, []float64{0}, updates)
	if math.Abs(n2[0]-(-0.5)) > 1e-12 {
		t.Fatalf("round2 %v", n2)
	}
}

func TestSCAFFOLDIntegration(t *testing.T) {
	algo, _ := New("scaffold", Params{})
	cfg := testConfig(t, algo)
	cfg.Rounds = 4
	res, err := core.Start(core.RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatal("rounds")
	}
	// Extra communication must be metered (factor 2 on top of base 2).
	base := testConfig(t, &FedAvg{})
	base.Rounds = 4
	rBase, err := core.Start(core.RunSpec{Config: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommBytesByRound[3] != 2*rBase.CommBytesByRound[3] {
		t.Fatalf("scaffold comm %d want 2x fedavg %d", res.CommBytesByRound[3], rBase.CommBytesByRound[3])
	}
}

func TestFedDANEPreRoundAveragesGradients(t *testing.T) {
	f := &FedDANE{Mu: 0.1}
	cfg := testConfig(t, f)
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := s.Clients()[:2]
	f.PreRound(1, clients, s.Global())
	g0 := clients[0].StateVec("feddane.localgrad")
	g1 := clients[1].StateVec("feddane.localgrad")
	want := make([]float64, len(g0))
	tensor.Axpy(0.5, g0, want)
	tensor.Axpy(0.5, g1, want)
	if d := tensor.MaxAbsDiff(f.avgGrad, want); d > 1e-12 {
		t.Fatalf("avgGrad off by %v", d)
	}
	if tensor.Norm2(f.avgGrad) == 0 {
		t.Fatal("zero average gradient — FullGrad not wired")
	}
}

func TestMimeLiteTransformGrad(t *testing.T) {
	m := &MimeLite{Beta: 0.9}
	m.s = []float64{1, 1}
	m.pending = []float64{0, 0}
	cfg := testConfig(t, m)
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.Clients()[0]
	g := []float64{2, 0}
	// Only first 2 coords matter for the check; build full-size vectors.
	full := make([]float64, c.NumParams())
	copy(full, g)
	m.s = make([]float64, c.NumParams())
	m.s[0], m.s[1] = 1, 1
	w := make([]float64, c.NumParams())
	m.TransformGrad(c, 1, w, full)
	// g' = 0.1*g + 0.9*s -> (0.2+0.9, 0+0.9).
	if math.Abs(full[0]-1.1) > 1e-12 || math.Abs(full[1]-0.9) > 1e-12 {
		t.Fatalf("g=%v", full[:2])
	}
}

// Momentum-state methods must also advance their server state through
// Aggregate.
func TestMimeLiteAggregateAdvancesState(t *testing.T) {
	m := &MimeLite{Beta: 0.5}
	m.s = []float64{2}
	m.pending = []float64{4}
	next := m.Aggregate(1, []float64{0}, []core.Update{{Params: []float64{6}, NumSamples: 3}})
	if math.Abs(next[0]-6) > 1e-12 {
		t.Fatalf("aggregate avg %v", next)
	}
	if math.Abs(m.s[0]-3) > 1e-12 { // 0.5*4 + 0.5*2
		t.Fatalf("s=%v want 3", m.s)
	}
}
