package algos

import (
	"repro/internal/core"
	"repro/internal/optim"
)

// FedNova (Wang et al., NeurIPS 2020 — "Tackling the objective
// inconsistency problem") normalises client updates by their local step
// counts before averaging, removing the bias towards clients that take
// more local iterations:
//
//	d_k     = (w_global - w_k) / tau_k        (normalised update direction)
//	tau_eff = sum_k p_k * tau_k
//	w_next  = w_global - tau_eff * sum_k p_k * d_k
//
// where p_k = |D_k|/|D_St| and tau_k is client k's local iteration count
// — the steps it executed (Update.Steps), which a device step budget can
// hold below what the configuration implies. With equal tau_k this
// reduces exactly to FedAvg; it differs when clients have unequal data
// sizes, epochs or budgets. Local optimizer is plain SGD so that tau_k is
// the exact normaliser.
type FedNova struct {
	core.Base
}

// Name implements core.Algorithm.
func (*FedNova) Name() string { return "fednova" }

// NewOptimizer implements core.OptimizerChooser.
func (*FedNova) NewOptimizer(lr, momentum float64) optim.Optimizer {
	return optim.NewSGD(lr)
}

// Aggregate applies normalised averaging.
func (f *FedNova) Aggregate(round int, global []float64, updates []core.Update) []float64 {
	var totalSamples float64
	for _, u := range updates {
		totalSamples += float64(u.NumSamples)
	}
	n := len(global)
	dir := make([]float64, n) // sum_k p_k * d_k
	var tauEff float64
	for _, u := range updates {
		p := float64(u.NumSamples) / totalSamples
		tau := float64(u.Steps)
		if tau <= 0 {
			tau = 1
		}
		tauEff += p * tau
		w := p / tau
		for i := range dir {
			dir[i] += w * (global[i] - u.Params[i])
		}
	}
	next := make([]float64, n)
	for i := range next {
		next[i] = global[i] - tauEff*dir[i]
	}
	return next
}

// verify FedNova implements the optional interfaces it relies on.
var (
	_ core.Aggregator       = (*FedNova)(nil)
	_ core.OptimizerChooser = (*FedNova)(nil)
)
