// Package algos implements the baseline federated-learning methods the
// paper compares FedTrip against (§V.A: FedAvg, FedProx, SlowMo, MOON,
// FedDyn) plus the appendix/related-work methods (SCAFFOLD, FedDANE,
// MimeLite). Each method is a core.Algorithm; FedTrip itself lives in
// internal/core as the paper's primary contribution.
//
// Concurrency contract: the server invokes BeginRound / TransformGrad /
// EndRound on client goroutines concurrently, so methods keep what a
// client carries across rounds in Client.StateVec, read what lives for one
// round from Client.RoundGlobal / Client.RoundSteps, and treat their own
// struct fields as read-only during the client phase; struct fields are
// only mutated in PreRound and Aggregate, which the server calls
// single-threaded. One Algorithm instance must not be shared between
// concurrent Runs.
package algos

import (
	"fmt"

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

// Names lists the registry in the paper's table order, appendix methods
// and related-work extensions (FedGKD §II.B, FedNova [22]) last.
func Names() []string {
	return []string{"fedtrip", "fedavg", "fedprox", "slowmo", "moon", "feddyn", "scaffold", "feddane", "mimelite", "fedgkd", "fednova"}
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

// String renders the method with its hyperparameter. The methods a run
// snapshot can hold (no server-side state) all do, so the snapshot
// fingerprint tells their settings apart.
func (f *FedProx) String() string { return spec.T("fedprox", f.Mu).String() }

// TransformGrad applies the proximal gradient (attach cost 2|w|).
func (f *FedProx) TransformGrad(c *core.Client, round int, w, g []float64) {
	global := c.RoundGlobal()
	for i := range g {
		g[i] += f.Mu * (w[i] - global[i])
	}
	c.Counter.Add(int64(2 * len(w)))
}
