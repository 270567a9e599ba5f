package algos

import (
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// SCAFFOLD (Karimireddy et al., ICML 2020) corrects client drift with
// control variates: the server keeps c, each client keeps c_k, and every
// local step uses g + c - c_k. After local training the client refreshes
//
//	c_k^+ = c_k - c + (w_global - w_k) / (K * lr)      (option II)
//
// and ships the delta back; the server folds the deltas into c. SCAFFOLD
// pays 2|w| extra communication per round per client (Appendix A,
// Table VIII) plus control-variate vector math.
type SCAFFOLD struct {
	core.Base

	// c is the server control variate. Clients read it in place while they
	// train: it is written only in PreRound and Aggregate, when none does.
	c        []float64
	selected []*core.Client // clients of the in-flight round (set in PreRound)
}

// Name implements core.Algorithm.
func (*SCAFFOLD) Name() string { return "scaffold" }

// NewOptimizer implements core.OptimizerChooser: SCAFFOLD analyses plain
// SGD.
func (*SCAFFOLD) NewOptimizer(lr, momentum float64) optim.Optimizer {
	return optim.NewSGD(lr)
}

// ExtraCommFactor implements core.CommCoster: control variates travel both
// ways.
func (*SCAFFOLD) ExtraCommFactor() float64 { return 2 }

// PreRound stashes the selected clients so Aggregate can read their
// control-variate deltas. The slice is copied: the runtime reuses its
// selection scratch across rounds.
func (s *SCAFFOLD) PreRound(round int, selected []*core.Client, global []float64) {
	if s.c == nil {
		s.c = make([]float64, len(global))
	}
	s.selected = append(s.selected[:0], selected...)
}

// variates splits the client's two persistent rows: c_k, and the delta
// EndRound last shipped to the server.
func variates(c *core.Client) (ck, dc []float64) {
	st := c.State(2)
	return st[:len(st)/2], st[len(st)/2:]
}

// TransformGrad applies the drift correction g += c - c_k.
func (s *SCAFFOLD) TransformGrad(c *core.Client, round int, w, g []float64) {
	cSrv := s.c
	ck, _ := variates(c)
	for i := range g {
		g[i] += cSrv[i] - ck[i]
	}
	c.Counter.Add(int64(2 * len(w)))
}

// EndRound refreshes c_k (option II) and records the delta for the server.
func (s *SCAFFOLD) EndRound(c *core.Client, round int) {
	k := c.RoundSteps()
	if k == 0 {
		return
	}
	lr := c.Config().LR
	global := c.RoundGlobal()
	cSrv := s.c
	ck, dc := variates(c)
	w := c.Model().Params()
	inv := 1 / (float64(k) * lr)
	for i := range ck {
		newCk := ck[i] - cSrv[i] + float64((global[i]-w[i])*inv)
		dc[i] = newCk - ck[i]
		ck[i] = newCk
	}
	c.Counter.Add(int64(4 * len(ck)))
}

// Aggregate averages the models (Eq. 2 weighting) and folds the control
// deltas into the server variate: c += |S|/N * mean_k dc_k.
func (s *SCAFFOLD) Aggregate(round int, global []float64, updates []core.Update) []float64 {
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

	if len(s.selected) > 0 {
		// Population size: use the config's partition count via any client.
		popN := len(s.selected[0].Config().Parts)
		frac := float64(len(s.selected)) / float64(popN)
		inv := frac / float64(len(s.selected))
		for _, c := range s.selected {
			_, dc := variates(c)
			tensor.Axpy(inv, dc, s.c)
		}
	}
	return next
}
