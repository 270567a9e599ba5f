package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestClipToNorm(t *testing.T) {
	g := []float64{3, 4} // norm 5
	clipToNorm(g, 2.5)
	if math.Abs(tensor.Norm2(g)-2.5) > 1e-12 {
		t.Fatalf("norm after clip %v", tensor.Norm2(g))
	}
	// Direction preserved.
	if math.Abs(g[0]/g[1]-0.75) > 1e-12 {
		t.Fatalf("direction changed: %v", g)
	}
	// Under the bound: untouched.
	h := []float64{0.3, 0.4}
	clipToNorm(h, 2.5)
	if h[0] != 0.3 || h[1] != 0.4 {
		t.Fatalf("small gradient clipped: %v", h)
	}
}

// With ClipNorm set, the poison-resistant property: huge regularizer
// gradients cannot blow up the model within a round.
type hugeGradAlgo struct{ Base }

func (hugeGradAlgo) Name() string { return "hugegrad" }
func (hugeGradAlgo) TransformGrad(c *Client, round int, w, g []float64) {
	for i := range g {
		g[i] += 1e9
	}
}

func TestClipNormStabilisesRun(t *testing.T) {
	// Unclipped: the 1e9 gradient blasts the model parameters to a huge
	// norm (or outright divergence).
	cfg := testConfig(t, hugeGradAlgo{})
	cfg.Rounds = 2
	var unclippedNorm float64
	cfg.OnRound = func(round int, s *Server) { unclippedNorm = tensor.Norm2(s.Global()) }
	if _, err := Start(RunSpec{Config: cfg}); err == nil && unclippedNorm < 1e6 {
		t.Fatalf("unclipped 1e9 gradients left norm %v — expected blow-up", unclippedNorm)
	}
	// Clipped: the same attack is bounded and the run completes sanely.
	cfg2 := testConfig(t, hugeGradAlgo{})
	cfg2.Rounds = 2
	cfg2.ClipNorm = 1
	var clippedNorm float64
	cfg2.OnRound = func(round int, s *Server) { clippedNorm = tensor.Norm2(s.Global()) }
	res, err := Start(RunSpec{Config: cfg2})
	if err != nil {
		t.Fatalf("clipped run diverged: %v", err)
	}
	if res.Rounds != 2 {
		t.Fatal("clipped run did not finish")
	}
	if clippedNorm > 100 {
		t.Fatalf("clipped norm %v still huge", clippedNorm)
	}
}

// Clipping must leave small-gradient runs bit-identical.
func TestClipNormNoEffectWhenLoose(t *testing.T) {
	a := testConfig(t, NewFedTrip(0.4))
	r1, err := Start(RunSpec{Config: a})
	if err != nil {
		t.Fatal(err)
	}
	b := testConfig(t, NewFedTrip(0.4))
	b.ClipNorm = 1e12
	r2, err := Start(RunSpec{Config: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Accuracy {
		if r1.Accuracy[i] != r2.Accuracy[i] {
			t.Fatal("loose clip changed the trajectory")
		}
	}
}
