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
	n := c.NumParams()

	global := make([]float64, n)
	for i := range global {
		global[i] = 1
	}
	s.PreRound(1, []*core.Client{c}, global)
	c.SetRoundGlobal(global)
	s.BeginRound(c, 1, global)

	// Simulate 2 local steps with the drift correction applied.
	g := make([]float64, n)
	w := make([]float64, n)
	s.TransformGrad(c, 1, w, g)
	s.TransformGrad(c, 1, w, g)
	if got := c.Scalar("scaffold.steps"); got != 2 {
		t.Fatalf("steps %v", got)
	}

	// Set the local model to a known endpoint and close the round.
	end := make([]float64, n)
	for i := range end {
		end[i] = 0.5
	}
	c.Model().SetParams(end)
	s.EndRound(c, 1)

	// c_k was 0, c was 0: c_k^+ = (global - w)/(K*lr) with K=2, lr=0.01.
	want := (1.0 - 0.5) / (2 * cfg.LR)
	ck := c.StateVec("scaffold.ck")
	dc := c.StateVec("scaffold.dc")
	for i := 0; i < 5; i++ {
		if math.Abs(ck[i]-want) > 1e-9 {
			t.Fatalf("ck[%d] = %v want %v", i, ck[i], want)
		}
		if math.Abs(dc[i]-want) > 1e-9 {
			t.Fatalf("dc[%d] = %v want %v", i, dc[i], want)
		}
	}

	// Aggregate folds |S|/N * mean(dc) into the server variate.
	next := s.Aggregate(1, global, []core.Update{{ClientID: 0, Params: end, NumSamples: 10}})
	if tensor.MaxAbsDiff(next, end) != 0 {
		t.Fatal("single-update aggregate should return the update")
	}
	popN := len(cfg.Parts)
	wantC := want * 1.0 / float64(popN)
	for i := 0; i < 5; i++ {
		if math.Abs(s.c[i]-wantC) > 1e-9 {
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
	s.BeginRound(c, 1, global)
	s.EndRound(c, 1) // no TransformGrad calls: must not divide by zero
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
	c.SetRoundGlobal(global)
	s.BeginRound(c, 1, global)
	cSrv := c.StateVec("scaffold.c")
	ck := c.StateVec("scaffold.ck")
	for i := range cSrv {
		cSrv[i] = 0.3
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
