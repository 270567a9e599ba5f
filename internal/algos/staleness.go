package algos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/spec"
)

// Staleness decorates a client-side method with an explicit staleness
// discount for the asynchronous runtime: the wrapped algorithm's updates
// are down-weighted by (1+staleness)^(-Alpha) at buffered aggregation
// (core.StalenessWeighter). The embedded interface forwards the client
// hooks (Name, BeginRound, TransformGrad, EndRound) untouched.
//
// Server-side optional capabilities (Aggregator, PreRounder,
// OptimizerChooser, CommCoster) do not survive interface embedding, so
// WithStaleness refuses methods that rely on them; it is meant for the
// purely client-side family (fedavg, fedprox, fedtrip, moon, fedgkd).
type Staleness struct {
	core.Algorithm
	// Alpha is the polynomial discount exponent (0 = no discount; 0.5 is
	// the FedBuff-style default).
	Alpha float64
}

// StalenessWeight implements core.StalenessWeighter.
func (s *Staleness) StalenessWeight(staleness int) float64 {
	return core.PolyDiscount(s.Alpha).F(staleness)
}

// String renders the wrapped method (with its own hyperparameters when it
// prints them) and the discount exponent.
func (s *Staleness) String() string {
	inner := s.Algorithm.Name()
	if st, ok := s.Algorithm.(fmt.Stringer); ok {
		inner = st.String()
	}
	return spec.Join(inner, spec.T("staleness", s.Alpha).String())
}

// WithStaleness wraps algo with a polynomial staleness discount of
// exponent alpha. It errors when the method carries server-side optional
// interfaces that the wrapper would silently hide.
func WithStaleness(algo core.Algorithm, alpha float64) (core.Algorithm, error) {
	if alpha < 0 {
		return nil, fmt.Errorf("algos: staleness exponent %g must be >= 0", alpha)
	}
	switch algo.(type) {
	case core.Aggregator, core.PreRounder, core.OptimizerChooser, core.CommCoster:
		return nil, fmt.Errorf("algos: %s has server-side hooks that WithStaleness would hide", algo.Name())
	}
	return &Staleness{Algorithm: algo, Alpha: alpha}, nil
}
