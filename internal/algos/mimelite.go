package algos

import (
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// MimeLite (Karimireddy et al., 2020) mimics centralized SGD-with-momentum
// by keeping the momentum state s on the server and applying it unchanged
// during local steps:
//
//	local:  w <- w - lr * ( (1-beta) * g + beta * s )
//	server: s <- (1-beta) * mean_k gradFull_k(w_global) + beta * s
//
// The full-batch gradients at the round's starting point are gathered in
// the pre-round phase (cost n(FP+BP) per client, extra 2|w| communication
// — Appendix A row "MimeLite").
type MimeLite struct {
	core.Base
	// Beta is the momentum coefficient.
	Beta float64

	s       []float64 // server momentum state
	pending []float64 // mean full-batch gradient gathered in PreRound
	scratch []float64 // per-client gradient buffer reused across PreRounds
}

// Name implements core.Algorithm.
func (*MimeLite) Name() string { return "mimelite" }

// String renders the method with its hyperparameter, in the text Parse reads.
func (m *MimeLite) String() string { return spec.T("mimelite", m.Beta).String() }

// NewOptimizer implements core.OptimizerChooser: the momentum lives on the
// server, so local steps are plain SGD on the mimicked update direction.
func (*MimeLite) NewOptimizer(lr, momentum float64) optim.Optimizer {
	return optim.NewSGD(lr)
}

// ExtraCommFactor implements core.CommCoster: s down, full gradient up.
func (*MimeLite) ExtraCommFactor() float64 { return 2 }

// PreRound gathers full-batch gradients at the current global model.
func (m *MimeLite) PreRound(round int, selected []*core.Client, global []float64) {
	if m.s == nil {
		m.s = make([]float64, len(global))
		m.pending = make([]float64, len(global))
		m.scratch = make([]float64, len(global))
	}
	tensor.ZeroVec(m.pending)
	inv := 1 / float64(len(selected))
	for _, c := range selected {
		c.FullGradInto(m.scratch, global)
		tensor.Axpy(inv, m.scratch, m.pending)
	}
}

// TransformGrad rewrites g into the mimicked momentum direction.
func (m *MimeLite) TransformGrad(c *core.Client, round int, w, g []float64) {
	b := m.Beta
	for i := range g {
		g[i] = float64((1-b)*g[i]) + float64(b*m.s[i]) // s is stable during the client phase
	}
	c.Counter.Add(int64(3 * len(w)))
}

// Aggregate averages models and advances the server momentum with the
// pre-round full-batch gradients.
func (m *MimeLite) Aggregate(round int, global []float64, updates []core.Update) []float64 {
	n := len(global)
	next := make([]float64, n)
	weights := make([]float64, len(updates))
	vecs := make([][]float64, len(updates))
	var total float64
	for i, u := range updates {
		weights[i] = float64(u.NumSamples)
		vecs[i] = u.Params
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	tensor.WeightedSumInto(next, weights, vecs)
	for i := range m.s {
		m.s[i] = float64((1-m.Beta)*m.pending[i]) + float64(m.Beta*m.s[i])
	}
	return next
}
