// Package algos implements the baseline federated-learning methods the
// paper compares FedTrip against (§V.A: FedAvg, FedProx, SlowMo, MOON,
// FedDyn) plus the appendix/related-work methods (SCAFFOLD, FedDANE,
// MimeLite). Each method is a core.Algorithm; FedTrip itself lives in
// internal/core as the paper's primary contribution.
//
// Parse is the one constructor: it builds a method from the text its
// String() prints, and an argument the text leaves off takes the §V.A
// default written in Parse's switch.
//
// Concurrency contract: the server invokes BeginRound / TransformGrad /
// EndRound on client goroutines concurrently, so methods keep what a
// client carries across rounds in Client.State — MOON its previous local
// model, FedDyn h_k and FedDANE its local gradient in one row each,
// SCAFFOLD c_k and delta-c in two; FedAvg, FedProx, SlowMo, MimeLite,
// FedGKD and FedNova keep none — read what lives for one round from
// Client.RoundGlobal / Client.RoundSteps, and treat their own struct
// fields as read-only during the client phase; struct fields are only
// mutated in PreRound and Aggregate, which the server calls
// single-threaded. One Algorithm instance must not be shared between
// concurrent Runs.
package algos

import (
	"math"

	"repro/internal/core"
	"repro/internal/spec"
)

// methodFamily is the grammar of -algo: a registry name, then the
// method's hyperparameters in the order its String() prints them; Parse
// holds each one's §V.A default. The forms are in the paper's table
// order, appendix methods and related-work extensions (FedGKD §II.B,
// FedNova [22]) last.
var methodFamily = spec.Family{Label: "method", Forms: []spec.Form{
	{Name: "fedtrip", Max: 5}, // mu, xi mode, fixed xi, global weight, history weight
	{Name: "fedavg"},
	{Name: "fedprox", Max: 1}, // mu
	{Name: "slowmo", Max: 2},  // beta, slow lr
	{Name: "moon", Max: 2},    // mu, tau
	{Name: "feddyn", Max: 1},  // alpha
	{Name: "scaffold"},
	{Name: "feddane", Max: 1},  // mu
	{Name: "mimelite", Max: 1}, // beta
	{Name: "fedgkd", Max: 2},   // gamma, tau
	{Name: "fednova"},
}}

// Names lists the registry in the paper's table order.
func Names() []string {
	names := make([]string, len(methodFamily.Forms))
	for i, f := range methodFamily.Forms {
		names[i] = f.Name
	}
	return names
}

// Parse builds a fresh method from its text, the form String() prints
// ("fedtrip:0.4,1,0,1,1", "fedprox:0.3", "feddyn"): a registry name and
// up to as many arguments as the method prints, each read literally; an
// argument left off takes the paper's default (§V.A), written beside it
// below. Arguments are finite and non-negative, and FedTrip's xi mode is
// 0, 1 or 2.
func Parse(text string) (core.Algorithm, error) {
	terms, err := methodFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	t := terms[0]
	for _, a := range t.Args {
		if !(a >= 0) || math.IsInf(a, 1) {
			return nil, methodFamily.Errorf(text, "argument %g is not a finite number >= 0", a)
		}
	}
	arg := func(i int, def float64) float64 {
		if i < len(t.Args) {
			return t.Args[i]
		}
		return def
	}
	switch t.Name {
	case "fedtrip":
		mode := arg(1, float64(core.XiInverseGap))
		if mode != math.Trunc(mode) || mode > float64(core.XiFixed) {
			return nil, methodFamily.Errorf(text, "xi mode %g is not 0 (1/gap), 1 (gap) or 2 (fixed)", mode)
		}
		return &core.FedTrip{Mu: arg(0, 0.4), Mode: core.XiMode(mode), FixedXi: arg(2, 0), GlobalWeight: arg(3, 1), HistWeight: arg(4, 1)}, nil
	case "fedprox":
		return &FedProx{Mu: arg(0, 0.1)}, nil
	case "slowmo":
		return &SlowMo{Beta: arg(0, 0.5), SlowLR: arg(1, 1)}, nil
	case "moon":
		return &MOON{Mu: arg(0, 1), Tau: arg(1, 0.5)}, nil
	case "feddyn":
		return &FedDyn{Alpha: arg(0, 0.1)}, nil
	case "scaffold":
		return &SCAFFOLD{}, nil
	case "feddane":
		return &FedDANE{Mu: arg(0, 0.1)}, nil
	case "mimelite":
		return &MimeLite{Beta: arg(0, 0.9)}, nil
	case "fedgkd":
		return &FedGKD{Gamma: arg(0, 0.2), Tau: arg(1, 2)}, nil
	case "fednova":
		return &FedNova{}, nil
	default: // fedavg, the one form left
		return &FedAvg{}, nil
	}
}

// FedAvg is the fundamental method (McMahan et al.): plain local SGDm and
// data-size-weighted averaging. It is core.Base with a name.
type FedAvg struct {
	core.Base
}

// Name implements core.Algorithm.
func (FedAvg) Name() string { return "fedavg" }

// AttachFLOPs implements core.AttachCoster: FedAvg attaches nothing.
func (FedAvg) AttachFLOPs(*core.Client, int) int64 { return 0 }

// FedProx (Li et al., MLSys 2020) adds the proximal term mu/2*||w-w_t||^2
// to the local objective, i.e. g += mu*(w - w_global) each iteration.
type FedProx struct {
	core.Base
	Mu float64
}

// Name implements core.Algorithm.
func (*FedProx) Name() string { return "fedprox" }

// String renders the method with its hyperparameter, in the text Parse
// reads. Every method with a hyperparameter prints it, so the snapshot
// fingerprint tells its settings apart.
func (f *FedProx) String() string { return spec.T("fedprox", f.Mu).String() }

// AttachFLOPs implements core.AttachCoster: TransformGrad's 2|w| a step.
func (f *FedProx) AttachFLOPs(c *core.Client, round int) int64 { return int64(2 * c.NumParams()) }

// TransformGrad applies the proximal gradient (attach cost 2|w|).
func (f *FedProx) TransformGrad(c *core.Client, round int, w, g []float64) {
	global := c.RoundGlobal()
	for i := range g {
		g[i] += float64(f.Mu * (w[i] - global[i]))
	}
	c.Counter.Add(int64(2 * len(w)))
}
