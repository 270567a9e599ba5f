// Package algos implements the baseline federated-learning methods the
// paper compares FedTrip against (§V.A: FedAvg, FedProx, SlowMo, MOON,
// FedDyn) plus the appendix/related-work methods (SCAFFOLD, FedDANE,
// MimeLite). Each method is a core.Algorithm; FedTrip itself lives in
// internal/core as the paper's primary contribution.
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
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/spec"
)

// Params carries the per-method hyperparameters of §V.A. Zero values are
// replaced by the paper's defaults in New.
type Params struct {
	// Mu is the regularization strength: FedTrip (1.0 MLP / 0.4 others),
	// FedProx (0.1), MOON (1.0), FedDANE (0.1).
	Mu float64
	// Tau is MOON's contrastive temperature (0.5).
	Tau float64
	// Alpha is FedDyn's regularization coefficient (1.0 on MNIST, 0.1
	// elsewhere).
	Alpha float64
	// Beta is the server momentum of SlowMo (0.5) and MimeLite (0.9).
	Beta float64
	// SlowLR is SlowMo's slow learning rate (1.0).
	SlowLR float64
}

// methodFamily is the grammar of -algo: a registry name, then the
// method's hyperparameters in the order its String() prints them. The
// forms are in the paper's table order, appendix methods and related-work
// extensions (FedGKD §II.B, FedNova [22]) last.
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
// argument left off keeps New's paper default. Arguments are finite and
// non-negative, and FedTrip's xi mode is 0, 1 or 2.
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
	m, err := New(t.Name, Params{})
	if err != nil {
		return nil, err
	}
	set := func(dst ...*float64) {
		for i := range min(len(dst), len(t.Args)) {
			*dst[i] = t.Args[i]
		}
	}
	switch m := m.(type) {
	case *core.FedTrip:
		mode := float64(m.Mode)
		set(&m.Mu, &mode, &m.FixedXi, &m.GlobalWeight, &m.HistWeight)
		if mode != math.Trunc(mode) || mode > float64(core.XiFixed) {
			return nil, methodFamily.Errorf(text, "xi mode %g is not 0 (1/gap), 1 (gap) or 2 (fixed)", mode)
		}
		m.Mode = core.XiMode(mode)
	case *FedProx:
		set(&m.Mu)
	case *SlowMo:
		set(&m.Beta, &m.SlowLR)
	case *MOON:
		set(&m.Mu, &m.Tau)
	case *FedDyn:
		set(&m.Alpha)
	case *FedDANE:
		set(&m.Mu)
	case *MimeLite:
		set(&m.Beta)
	case *FedGKD:
		set(&m.Gamma, &m.Tau)
	}
	return m, nil
}

// New builds a fresh algorithm instance by registry name, applying the
// paper's default hyperparameters for any zero Params field.
func New(name string, p Params) (core.Algorithm, error) {
	switch name {
	case "fedavg":
		return &FedAvg{}, nil
	case "fedtrip":
		if p.Mu == 0 {
			p.Mu = 0.4
		}
		return core.NewFedTrip(p.Mu), nil
	case "fedprox":
		if p.Mu == 0 {
			p.Mu = 0.1
		}
		return &FedProx{Mu: p.Mu}, nil
	case "moon":
		if p.Mu == 0 {
			p.Mu = 1
		}
		if p.Tau == 0 {
			p.Tau = 0.5
		}
		return &MOON{Mu: p.Mu, Tau: p.Tau}, nil
	case "feddyn":
		if p.Alpha == 0 {
			p.Alpha = 0.1
		}
		return &FedDyn{Alpha: p.Alpha}, nil
	case "slowmo":
		if p.Beta == 0 {
			p.Beta = 0.5
		}
		if p.SlowLR == 0 {
			p.SlowLR = 1
		}
		return &SlowMo{Beta: p.Beta, SlowLR: p.SlowLR}, nil
	case "scaffold":
		return &SCAFFOLD{}, nil
	case "feddane":
		if p.Mu == 0 {
			p.Mu = 0.1
		}
		return &FedDANE{Mu: p.Mu}, nil
	case "mimelite":
		if p.Beta == 0 {
			p.Beta = 0.9
		}
		return &MimeLite{Beta: p.Beta}, nil
	case "fedgkd":
		if p.Mu == 0 {
			p.Mu = 0.2
		}
		if p.Tau == 0 {
			p.Tau = 2
		}
		return &FedGKD{Gamma: p.Mu, Tau: p.Tau}, nil
	case "fednova":
		return &FedNova{}, nil
	}
	return nil, fmt.Errorf("algos: unknown method %q (known: %v)", name, Names())
}

// FedAvg is the fundamental method (McMahan et al.): plain local SGDm and
// data-size-weighted averaging. It is core.Base with a name.
type FedAvg struct {
	core.Base
}

// Name implements core.Algorithm.
func (FedAvg) Name() string { return "fedavg" }

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

// TransformGrad applies the proximal gradient (attach cost 2|w|).
func (f *FedProx) TransformGrad(c *core.Client, round int, w, g []float64) {
	global := c.RoundGlobal()
	for i := range g {
		g[i] += f.Mu * (w[i] - global[i])
	}
	c.Counter.Add(int64(2 * len(w)))
}
