package algos

import (
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// SlowMo (Wang et al., 2019) leaves local training untouched (plain SGD
// per the paper's setup) and applies slow server-side momentum to the
// aggregated pseudo-gradient:
//
//	d_t = w_{t-1} - avg_k w_k^t
//	m_t = beta * m_{t-1} + d_t
//	w_t = w_{t-1} - slowLR * m_t
//
// With beta=0 and slowLR=1 this reduces exactly to FedAvg.
type SlowMo struct {
	core.Base
	// Beta is the slow momentum coefficient.
	Beta float64
	// SlowLR is the server learning rate.
	SlowLR float64

	m []float64 // server momentum buffer, touched only in Aggregate
}

// Name implements core.Algorithm.
func (*SlowMo) Name() string { return "slowmo" }

// String renders the method with its hyperparameters, in the text Parse reads.
func (s *SlowMo) String() string { return spec.T("slowmo", s.Beta, s.SlowLR).String() }

// NewOptimizer implements core.OptimizerChooser: SlowMo's local optimizer
// is plain SGD (the slow momentum replaces local momentum).
func (*SlowMo) NewOptimizer(lr, momentum float64) optim.Optimizer {
	return optim.NewSGD(lr)
}

// Aggregate applies the slow momentum update. Cost: 4|w| per round
// (Table VIII row "SlowMo").
func (s *SlowMo) Aggregate(round int, global []float64, updates []core.Update) []float64 {
	n := len(global)
	if s.m == nil {
		s.m = make([]float64, n)
	}
	avg := make([]float64, n)
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
	tensor.WeightedSumInto(avg, weights, vecs)
	next := make([]float64, n)
	for i := range next {
		s.m[i] = float64(s.Beta*s.m[i]) + (global[i] - avg[i])
		next[i] = global[i] - float64(s.SlowLR*s.m[i])
	}
	return next
}
