package core

import (
	"math"

	"repro/internal/prng"
	"repro/internal/spec"
)

// LatencyModel assigns each client dispatch a simulated wall-clock
// duration in seconds: the time between the server shipping the global
// model and the client's update arriving back. The asynchronous runtime
// advances its virtual clock with these samples; it never sleeps, so
// "seconds" are simulation units, deterministic for a fixed seed.
//
// Sample must draw all randomness from the supplied rng (the runtime's
// dedicated latency source) and must be safe to call from a single
// goroutine; the runtime samples at dispatch time on the event loop.
type LatencyModel interface {
	Sample(clientID int, rng *prng.Rand) float64
	String() string
}

// ZeroLatency makes every dispatch complete instantly. It draws nothing
// from the rng, so it is the model to use for the sync-equivalence barrier
// mode.
type ZeroLatency struct{}

func (ZeroLatency) Sample(int, *prng.Rand) float64 { return 0 }
func (ZeroLatency) String() string                 { return "zero" }

// ConstantLatency gives every client the same fixed duration.
type ConstantLatency struct{ D float64 }

func (l ConstantLatency) Sample(int, *prng.Rand) float64 { return l.D }
func (l ConstantLatency) String() string                 { return spec.T("const", l.D).String() }

// UniformLatency draws uniformly from [Min, Max].
type UniformLatency struct{ Min, Max float64 }

func (l UniformLatency) Sample(_ int, rng *prng.Rand) float64 {
	return l.Min + rng.Float64()*(l.Max-l.Min)
}
func (l UniformLatency) String() string { return spec.T("uniform", l.Min, l.Max).String() }

// ExponentialLatency draws from an exponential distribution with the
// given mean — the classic memoryless arrival model.
type ExponentialLatency struct{ Mean float64 }

func (l ExponentialLatency) Sample(_ int, rng *prng.Rand) float64 {
	return l.Mean * rng.ExpFloat64()
}
func (l ExponentialLatency) String() string { return spec.T("exp", l.Mean).String() }

// LognormalLatency draws exp(Mu + Sigma*N(0,1)) — the heavy-tailed
// device-speed distribution observed in production FL fleets, where a
// small fraction of devices is dramatically slower.
type LognormalLatency struct{ Mu, Sigma float64 }

func (l LognormalLatency) Sample(_ int, rng *prng.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}
func (l LognormalLatency) String() string { return spec.T("lognormal", l.Mu, l.Sigma).String() }

// StragglerLatency models a fleet with systematic stragglers: every
// SlowEvery-th client (by ID) takes Slow seconds, the rest take Fast,
// each with ±10% uniform jitter. It is the scenario where synchronous
// rounds pay the straggler tax every round and buffered async does not.
type StragglerLatency struct {
	Fast, Slow float64
	SlowEvery  int
}

func (l StragglerLatency) Sample(clientID int, rng *prng.Rand) float64 {
	tier := l.Fast
	if l.SlowEvery > 0 && clientID%l.SlowEvery == 0 {
		tier = l.Slow
	}
	return tier * (0.9 + 0.2*rng.Float64())
}
func (l StragglerLatency) String() string {
	return spec.T("straggler", l.Fast, l.Slow, float64(l.SlowEvery)).String()
}

var latencyFamily = spec.Family{Label: "latency", Empty: "zero", Forms: []spec.Form{
	{Name: "zero"}, {Name: "const", Min: 1, Max: 1}, {Name: "uniform", Min: 2, Max: 2},
	{Name: "exp", Min: 1, Max: 1}, {Name: "lognormal", Min: 2, Max: 2}, {Name: "straggler", Min: 3, Max: 3},
}}

// ParseLatency parses a latency spec (grammar: internal/spec):
//
//	zero                 no latency (sync-equivalence mode; also "")
//	const:D              every dispatch takes D seconds
//	uniform:MIN,MAX      uniform in [MIN, MAX]
//	exp:MEAN             exponential with the given mean
//	lognormal:MU,SIGMA   exp(MU + SIGMA*N(0,1))
//	straggler:F,S,E      every E-th client takes S, others F (±10% jitter)
func ParseLatency(text string) (LatencyModel, error) {
	ts, err := latencyFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	var (
		m    LatencyModel = ZeroLatency{}
		a                 = ts[0].Args
		ok                = true
		want string
	)
	switch ts[0].Name {
	case "const":
		m, ok, want = ConstantLatency{D: a[0]}, a[0] >= 0, "D >= 0"
	case "uniform":
		m, ok, want = UniformLatency{Min: a[0], Max: a[1]}, a[0] >= 0 && a[1] >= a[0], "0 <= MIN <= MAX"
	case "exp":
		m, ok, want = ExponentialLatency{Mean: a[0]}, a[0] > 0, "MEAN > 0"
	case "lognormal":
		m, ok, want = LognormalLatency{Mu: a[0], Sigma: a[1]}, isFiniteF(a[0]) && a[1] >= 0, "finite MU and SIGMA >= 0"
	case "straggler":
		m = StragglerLatency{Fast: a[0], Slow: a[1], SlowEvery: int(a[2])}
		ok, want = a[0] > 0 && a[1] >= a[0] && a[2] >= 1 && a[2] <= math.MaxInt32, "0 < F <= S and E >= 1"
	}
	if !ok {
		return nil, latencyFamily.Errorf(text, "wants %s", want)
	}
	return m, nil
}
