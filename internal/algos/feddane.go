package algos

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// FedDANE (Li et al., ACSSC 2019) is a federated Newton-type method: each
// round starts with a gradient exchange — selected clients send their
// full-batch gradients at w_global, the server averages them — and local
// training minimises
//
//	F_k(w) + <avgGrad - gradK, w> + mu/2 * ||w - w_global||^2
//
// so the mini-batch gradient picks up (avgGrad - grad_k) + mu*(w - w_global).
// The gradient exchange costs an extra 2|w| communication and a full-batch
// forward+backward (n(FP+BP)) per client (Appendix A).
type FedDANE struct {
	core.Base
	// Mu is the proximal coefficient.
	Mu float64

	avgGrad []float64 // set in PreRound, read-only during the client phase
}

// Name implements core.Algorithm.
func (*FedDANE) Name() string { return "feddane" }

// ExtraCommFactor implements core.CommCoster: gradients up, average down.
func (*FedDANE) ExtraCommFactor() float64 { return 2 }

// PreRound runs the gradient-exchange phase.
func (f *FedDANE) PreRound(round int, selected []*core.Client, global []float64) {
	if f.avgGrad == nil {
		f.avgGrad = make([]float64, len(global))
	}
	tensor.ZeroVec(f.avgGrad)
	inv := 1 / float64(len(selected))
	for _, c := range selected {
		// The gradient lands directly in the client's persistent state
		// vector — no per-round allocation.
		gk := c.StateVec("feddane.localgrad")
		c.FullGradInto(gk, global)
		tensor.Axpy(inv, gk, f.avgGrad)
	}
}

// TransformGrad applies the DANE correction and proximal pull.
func (f *FedDANE) TransformGrad(c *core.Client, round int, w, g []float64) {
	local := c.StateVec("feddane.localgrad")
	global := c.RoundGlobal()
	for i := range g {
		g[i] += (f.avgGrad[i] - local[i]) + f.Mu*(w[i]-global[i])
	}
	c.Counter.Add(int64(4 * len(w)))
}
