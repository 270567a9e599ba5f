package algos

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

func TestSCAFFOLDControlVariateUpdate(t *testing.T) {
	s := &SCAFFOLD{}
	cfg := testConfig(t, s)
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.Clients()[0]
	global := append([]float64(nil), srv.Global()...)

	// One real round. c and c_k start at zero, so the drift correction
	// adds nothing and the client runs plain SGD.
	s.PreRound(1, []*core.Client{c}, global)
	u := c.LocalTrain(1, global)
	k := c.RoundSteps()
	if full := (c.NumSamples() + cfg.BatchSize - 1) / cfg.BatchSize; k != full || u.Steps != k {
		t.Fatalf("RoundSteps %d, Update.Steps %d, want %d", k, u.Steps, full)
	}
	w := c.Model().Params()
	if tensor.MaxAbsDiff(w, u.Params) != 0 {
		t.Fatal("post-round model is not the upload")
	}

	// c_k was 0, c was 0: c_k^+ = (global - w)/(K*lr), and dc = c_k^+.
	ck := c.StateVec("scaffold.ck")
	dc := c.StateVec("scaffold.dc")
	want := make([]float64, len(w))
	for i := range want {
		want[i] = (global[i] - w[i]) / (float64(k) * cfg.LR)
		tol := 1e-9 * math.Max(1, math.Abs(want[i]))
		if math.Abs(ck[i]-want[i]) > tol {
			t.Fatalf("ck[%d] = %v want %v", i, ck[i], want[i])
		}
		if math.Abs(dc[i]-want[i]) > tol {
			t.Fatalf("dc[%d] = %v want %v", i, dc[i], want[i])
		}
	}
	if tensor.Norm2(ck) == 0 {
		t.Fatal("training moved nothing: the check above is vacuous")
	}

	// Aggregate folds |S|/N * mean(dc) into the server variate.
	next := s.Aggregate(1, global, []core.Update{u})
	if tensor.MaxAbsDiff(next, u.Params) != 0 {
		t.Fatal("single-update aggregate should return the update")
	}
	popN := float64(len(cfg.Parts))
	for i := range want {
		if wantC := want[i] / popN; math.Abs(s.c[i]-wantC) > 1e-9*math.Max(1, math.Abs(wantC)) {
			t.Fatalf("server c[%d] = %v want %v", i, s.c[i], wantC)
		}
	}
}

func TestSCAFFOLDZeroStepsEndRound(t *testing.T) {
	s := &SCAFFOLD{}
	cfg := testConfig(t, s)
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.Clients()[0]
	global := make([]float64, c.NumParams())
	s.PreRound(1, []*core.Client{c}, global)
	c.SetRoundGlobal(global)
	s.EndRound(c, 1) // no step ran: must not divide by zero
	ck := c.StateVec("scaffold.ck")
	if tensor.Norm2(ck) != 0 {
		t.Fatal("c_k must stay zero when no steps ran")
	}
}

// The drift correction g + c - c_k must cancel exactly when c == c_k.
func TestSCAFFOLDNoDriftWhenVariatesEqual(t *testing.T) {
	s := &SCAFFOLD{}
	cfg := testConfig(t, s)
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := srv.Clients()[0]
	n := c.NumParams()
	global := make([]float64, n)
	s.PreRound(1, []*core.Client{c}, global)
	ck := c.StateVec("scaffold.ck")
	for i := range ck {
		s.c[i] = 0.3
		ck[i] = 0.3
	}
	g := make([]float64, n)
	for i := range g {
		g[i] = 1
	}
	s.TransformGrad(c, 1, make([]float64, n), g)
	for i := range g {
		if g[i] != 1 {
			t.Fatalf("g[%d] = %v, correction should cancel", i, g[i])
		}
	}
}
