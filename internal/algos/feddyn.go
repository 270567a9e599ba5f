package algos

import (
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// FedDyn (Acar et al., ICLR 2021) dynamically regularises the local
// objective so that local optima align with the global optimum:
//
//	min_w F_k(w) - <h_k, w> + alpha/2 * ||w - w_global||^2
//
// where h_k is a client-side first-order state updated after each round,
// and the server keeps a matching correction term h. Per the paper's
// experimental setup FedDyn's local optimizer is plain SGD.
type FedDyn struct {
	core.Base
	// Alpha is the regularization coefficient (paper: 1.0 on MNIST, 0.1
	// on the other datasets).
	Alpha float64

	// h is the server correction state, lazily sized; touched only in
	// Aggregate (single-threaded).
	h []float64
}

// Name implements core.Algorithm.
func (*FedDyn) Name() string { return "feddyn" }

// NewOptimizer implements core.OptimizerChooser: FedDyn runs plain SGD.
func (*FedDyn) NewOptimizer(lr, momentum float64) optim.Optimizer {
	return optim.NewSGD(lr)
}

// TransformGrad applies g += -h_k + alpha*(w - w_global). Attach cost
// 4|w|, same order as FedTrip (Table VIII).
func (f *FedDyn) TransformGrad(c *core.Client, round int, w, g []float64) {
	hk := c.StateVec("feddyn.h")
	global := c.RoundGlobal()
	a := f.Alpha
	for i := range g {
		g[i] += -hk[i] + a*(w[i]-global[i])
	}
	c.Counter.Add(int64(4 * len(w)))
}

// EndRound updates the client state h_k -= alpha*(w_k - w_global).
func (f *FedDyn) EndRound(c *core.Client, round int) {
	hk := c.StateVec("feddyn.h")
	global := c.RoundGlobal()
	w := c.Model().Params()
	for i := range hk {
		hk[i] -= f.Alpha * (w[i] - global[i])
	}
	c.Counter.Add(int64(2 * len(hk)))
}

// Aggregate implements the FedDyn server:
//
//	h      <- h - alpha * mean_k (w_k - w_global)   over selected clients
//	w_next <- mean_k w_k - h/alpha
func (f *FedDyn) Aggregate(round int, global []float64, updates []core.Update) []float64 {
	n := len(global)
	if f.h == nil {
		f.h = make([]float64, n)
	}
	mean := make([]float64, n)
	inv := 1 / float64(len(updates))
	for _, u := range updates {
		tensor.Axpy(inv, u.Params, mean)
	}
	for i := range f.h {
		f.h[i] -= f.Alpha * (mean[i] - global[i])
	}
	next := make([]float64, n)
	for i := range next {
		next[i] = mean[i] - f.h[i]/f.Alpha
	}
	return next
}
