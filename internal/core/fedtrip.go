package core

import (
	"fmt"

	"repro/internal/spec"
	"repro/internal/tensor"
)

// XiMode selects how FedTrip derives the staleness coefficient xi from the
// participation gap (current round minus the client's last participating
// round).
//
// The paper's §IV.B says xi "is set as the interval between the current
// round and the last round of participating in training", while the
// convergence analysis (Theorem 1) requires xi in (0,1] with
// E[xi] = p*ln(p)/(p-1) — which is exactly E[1/gap] for geometric gaps
// under participation rate p, and matches §V.D's observation that E[xi]
// shrinks when participation drops (4-of-50). XiInverseGap therefore
// reproduces the paper's analysis and is the default; XiGap implements the
// literal §IV.B reading and XiFixed supports the ablation benchmarks.
type XiMode int

const (
	// XiInverseGap sets xi = 1/gap (default; matches the convergence
	// analysis and the scalability discussion).
	XiInverseGap XiMode = iota
	// XiGap sets xi = gap (the literal reading of §IV.B).
	XiGap
	// XiFixed sets xi = FixedXi regardless of staleness.
	XiFixed
)

func (m XiMode) String() string {
	switch m {
	case XiInverseGap:
		return "inverse-gap"
	case XiGap:
		return "gap"
	case XiFixed:
		return "fixed"
	}
	return fmt.Sprintf("XiMode(%d)", int(m))
}

// FedTrip is the paper's contribution: triplet model regularization. The
// local loss becomes
//
//	L = F(w) + mu/2 * ( ||w - w_global||^2 - xi * ||w - w_hist||^2 )
//
// so each mini-batch gradient picks up the attaching term
//
//	mu * ( (w - w_global) + xi * (w_hist - w) )        (Algorithm 1, line 7)
//
// pulling the local model toward the global model (update consistency)
// while pushing it away from the client's previous upload (parameter-space
// exploration). The attaching cost is 4|w| FLOPs per iteration and there
// is no extra communication.
type FedTrip struct {
	Base
	// Mu is the regularization strength (paper: 1.0 for MLP, 0.4 others).
	Mu float64
	// Mode selects the xi schedule (default XiInverseGap).
	Mode XiMode
	// FixedXi is the xi value under XiFixed.
	FixedXi float64
	// GlobalWeight and HistWeight scale the two regularization terms for
	// the ablation benchmarks; both default to 1 (NewFedTrip sets them).
	GlobalWeight, HistWeight float64
}

// NewFedTrip returns FedTrip with the paper's xi schedule.
func NewFedTrip(mu float64) *FedTrip {
	return &FedTrip{Mu: mu, Mode: XiInverseGap, GlobalWeight: 1, HistWeight: 1}
}

// Name implements Algorithm.
func (f *FedTrip) Name() string { return "fedtrip" }

// String renders the method with every hyperparameter (mu, then the
// ablation knobs), so run fingerprints tell a fedtrip:0.1 run from a
// fedtrip:5 one; algos.Parse reads the text back.
func (f *FedTrip) String() string {
	return spec.T("fedtrip", f.Mu, float64(f.Mode), f.FixedXi, f.GlobalWeight, f.HistWeight).String()
}

// Xi computes the staleness coefficient for a client participating at
// round, whose previous participation was lastRound (0 if never).
func (f *FedTrip) Xi(round, lastRound int) float64 {
	if lastRound <= 0 {
		return 0 // no historical model yet: term vanishes
	}
	gap := round - lastRound
	if gap < 1 {
		gap = 1
	}
	switch f.Mode {
	case XiGap:
		return float64(gap)
	case XiFixed:
		return f.FixedXi
	default:
		return 1 / float64(gap)
	}
}

// TransformGrad applies Algorithm 1 line 7. Cost: 4|w| FLOPs (two
// subtractions, two scaled accumulations), metered on the client. xi is a
// pure function of the participation gap: LastRound still names the
// previous participation here, LocalTrainSteps moves it after EndRound.
// xi is 0 at a first participation (LastRound 0), so w_hist is read only
// once EndRound has written it.
func (f *FedTrip) TransformGrad(c *Client, round int, w, g []float64) {
	global := c.RoundGlobal()
	xi := f.Xi(round, c.LastRound) * f.HistWeight
	mu := f.Mu
	gw := f.GlobalWeight
	if xi == 0 {
		// First participation (or ablated history term): pure proximal
		// pull, like FedProx.
		for i := range g {
			g[i] += float64(mu * gw * (w[i] - global[i]))
		}
		c.Counter.Add(int64(2 * len(w)))
		return
	}
	hist := c.State(1)
	for i := range g {
		g[i] += float64(mu * (float64(gw*(w[i]-global[i])) + float64(xi*(hist[i]-w[i]))))
	}
	c.Counter.Add(int64(4 * len(w)))
}

// AttachFLOPs implements AttachCoster: TransformGrad's 2|w| a step when
// the history term vanishes (xi = 0, a first participation), 4|w|
// otherwise.
func (f *FedTrip) AttachFLOPs(c *Client, round int) int64 {
	if f.Xi(round, c.LastRound)*f.HistWeight == 0 {
		return int64(2 * c.NumParams())
	}
	return int64(4 * c.NumParams())
}

// EndRound keeps w_hist (Algorithm 1 line 4): the parameters the client
// is about to upload, read back at its next participation. The client's
// one persistent row is allocated here, at its first participation —
// unless the run holds its rows as recipe chains (lazyrows.go).
func (f *FedTrip) EndRound(c *Client, round int) {
	copy(c.State(1), c.Model().Params())
}

// TripletLoss evaluates the regularization value mu/2*(||w-wg||^2 -
// xi*||w-wh||^2) — used by tests to confirm TransformGrad is its exact
// gradient.
func (f *FedTrip) TripletLoss(w, global, hist []float64, xi float64) float64 {
	return f.Mu / 2 * (float64(f.GlobalWeight*tensor.DistSq(w, global)) - float64(xi*f.HistWeight*tensor.DistSq(w, hist)))
}
