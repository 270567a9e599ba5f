// Fleet heterogeneity: how long a dispatch takes, how fast a client's
// device computes and what its link costs — each one parsed spec.
//
// RunSpec.Latency, Devices and Network each hold a FleetDist, a term of
// its own grammar, and the field decides how it is drawn: a latency per
// dispatch from the runtime's latency stream (duration); a compute-speed
// multiplier per client (speed), which turns the round's metered FLOPs
// into its duration so the clock and the paper's FLOP tables price the
// same quantity; and a link per client (link), whose transfer time —
// rtt + downBytes*8/downBps + upBytes*8/upBps over the bytes the transport
// really moved — stacks on top. Speeds and links are derived statelessly
// from the client's indexed instance of a dedicated seed stream
// (streamDevice, streamNet), so no fleet-wide array exists and enabling a
// knob never perturbs selection or another knob's draws. A homogeneous
// device fleet reproduces the constant-latency trajectory bit-for-bit
// (TestDeviceUniformFleetMatchesConstLatency), an infinite-bandwidth
// zero-RTT fleet the unpriced one (TestInfiniteBandwidthMatchesPlainAsync).
package core

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/spec"
)

// Speeds are clamped into [minDeviceSpeed, maxDeviceSpeed] and finite
// bandwidths floored at minNetMbps when drawn: a heavy-tailed draw must not
// mint a client whose round or transfer time is effectively infinite (or
// zero). An infinite bandwidth is the explicit unpriced link and passes
// through.
const (
	minDeviceSpeed = 1.0 / 32
	maxDeviceSpeed = 32.0
	minNetMbps     = 0.01
)

// The largest deviates the draw primitives return: prng's polar normal
// peaks at sqrt(-2 ln 2^-104) ≈ 12.01 (u = 2^-52, v = 0), its exponential
// at -ln 2^-53 ≈ 36.74, and a straggler's jitter multiplies by less than
// 1.1. A finite argument whose largest draw passes MaxFloat64 is refused
// at parse time, as a non-finite one is: a lognormal needs
// MU + 12.01*SIGMA <= ln(MaxFloat64), an exponential MEAN <= MaxFloat64/36.74.
var (
	maxNormDraw = math.Sqrt(-2 * math.Log(0x1p-104))
	maxExpDraw  = -math.Log(0x1p-53)
)

// lognormalFits reports whether unit*exp(mu + sigma*N) is finite for every
// normal deviate N the stream can draw.
func lognormalFits(mu, sigma, unit float64) bool {
	return !math.IsInf(unit*math.Exp(mu+float64(sigma*maxNormDraw)), 1)
}

// bitsPerMbps converts a bandwidth-dist argument into the link's unit, so
// a finite bandwidth is at most MaxFloat64/1e6 Mbps.
const bitsPerMbps = 1e6

// finiteBps reports whether every bandwidth in mbps is "inf" or converts
// to a finite bit rate.
func finiteBps(mbps ...float64) bool {
	for _, v := range mbps {
		if !math.IsInf(v, 1) && math.IsInf(v*bitsPerMbps, 1) {
			return false
		}
	}
	return true
}

// FleetDist is one parsed fleet-distribution spec: a term of the latency,
// device-dist or bandwidth-dist grammar. Only ParseLatency,
// ParseDeviceDist and ParseNetDist build one, and RunSpec.Validate refuses
// a FleetDist in a field whose grammar did not parse it. The zero value is
// unset: a homogeneous fleet, free communication, and — once Validate has
// run — the zero latency.
type FleetDist struct {
	fam  *spec.Family
	term spec.Term
}

// None reports whether the distribution is unset.
func (d FleetDist) None() bool { return d.fam == nil }

// String renders the spec in its grammar; an unset one prints "none".
func (d FleetDist) String() string {
	if d.None() {
		return "none"
	}
	return d.term.String()
}

var (
	latencyFamily = spec.Family{Label: "latency", Empty: "zero", Forms: []spec.Form{
		{Name: "zero"}, {Name: "const", Min: 1, Max: 1}, {Name: "uniform", Min: 2, Max: 2},
		{Name: "exp", Min: 1, Max: 1}, {Name: "lognormal", Min: 2, Max: 2}, {Name: "straggler", Min: 3, Max: 3},
	}}
	deviceFamily = spec.Family{Label: "device-dist", Empty: "none", Forms: []spec.Form{
		{Name: "none"}, {Name: "uniform", Min: 2, Max: 2}, {Name: "lognormal", Min: 2, Max: 2},
		{Name: "tiered", Max: -1, Group: 2},
	}}
	netFamily = spec.Family{Label: "bandwidth-dist", Empty: "none", Forms: []spec.Form{
		{Name: "none"}, {Name: "const", Min: 2, Max: 3}, {Name: "uniform", Min: 2, Max: 3},
		{Name: "lognormal", Min: 2, Max: 3}, {Name: "tiered", Max: -1, Group: 4},
	}}
	// zeroLatency is what an unset Latency resolves to.
	zeroLatency = FleetDist{&latencyFamily, spec.T("zero")}
)

// ParseLatency parses a latency spec (grammar: internal/spec):
//
//	zero                 no latency (sync-equivalence mode; also "")
//	const:D              every dispatch takes D seconds
//	uniform:MIN,MAX      uniform in [MIN, MAX]
//	exp:MEAN             exponential with the given mean
//	lognormal:MU,SIGMA   exp(MU + SIGMA*N(0,1)), the heavy tail of real fleets
//	straggler:F,S,E      every E-th client (by ID) takes S, others F, each
//	                     with ±10% uniform jitter
//
// Every argument is finite, and so is every draw: MEAN, S and a
// lognormal's MU + 12.01*SIGMA are bounded (maxNormDraw).
func ParseLatency(text string) (FleetDist, error) {
	ts, err := latencyFamily.Parse(text)
	if err != nil {
		return FleetDist{}, err
	}
	a, ok, want := ts[0].Args, true, ""
	switch ts[0].Name {
	case "const":
		ok, want = a[0] >= 0, "D >= 0"
	case "uniform":
		ok, want = a[0] >= 0 && a[1] >= a[0], "0 <= MIN <= MAX"
	case "exp":
		ok, want = a[0] > 0 && a[0]*maxExpDraw <= math.MaxFloat64, "0 < MEAN <= MaxFloat64/36.74"
	case "lognormal":
		ok, want = a[1] >= 0 && lognormalFits(a[0], a[1], 1), "MU and SIGMA >= 0 with MU + 12.01*SIGMA <= ln(MaxFloat64)"
	case "straggler":
		ok, want = a[0] > 0 && a[1] >= a[0] && a[1]*1.1 <= math.MaxFloat64 && a[2] >= 1 && a[2] <= math.MaxInt32,
			"0 < F <= S <= MaxFloat64/1.1 and 1 <= E < 2^31"
		a[2] = math.Trunc(a[2]) // E counts clients
	}
	if !ok || !finite(a...) {
		return FleetDist{}, latencyFamily.Errorf(text, "wants finite %s", want)
	}
	return FleetDist{&latencyFamily, ts[0]}, nil
}

// ParseDeviceDist parses a device-distribution spec (grammar:
// internal/spec). A speed multiplier of 1 is the reference device that
// executes RunSpec.FlopRate FLOPs per simulated second:
//
//	none                 homogeneous fleet (no device profiles; also "")
//	uniform:MIN,MAX      speed uniform in [MIN, MAX]
//	lognormal:MU,SIGMA   speed = exp(MU + SIGMA*N(0,1))
//	tiered               the default fleet, tiered:0.25,0.3,1,0.6,4,0.1 —
//	                     30% edge at 0.25x, 60% mobile at 1x, 10% server at 4x
//	tiered:S1,F1,S2,F2,...  custom tiers (speed, fraction pairs; fractions
//	                     are normalized)
//
// Every argument is finite, and a lognormal's largest draw too.
func ParseDeviceDist(text string) (FleetDist, error) {
	ts, err := deviceFamily.Parse(text)
	if err != nil || ts[0].Name == "none" {
		return FleetDist{}, err
	}
	t := ts[0]
	if t.Name == "tiered" && len(t.Args) == 0 {
		t.Args = []float64{0.25, 0.3, 1, 0.6, 4, 0.1}
	}
	a, ok, want := t.Args, true, ""
	switch t.Name {
	case "uniform":
		ok, want = a[0] > 0 && a[1] >= a[0], "0 < MIN <= MAX"
	case "lognormal":
		ok, want = a[1] >= 0 && lognormalFits(a[0], a[1], 1), "MU and SIGMA >= 0 with MU + 12.01*SIGMA <= ln(MaxFloat64)"
	case "tiered":
		for _, v := range a {
			ok = ok && v > 0
		}
		want = "positive speeds and fractions"
	}
	if !ok || !finite(a...) {
		return FleetDist{}, deviceFamily.Errorf(text, "wants finite %s", want)
	}
	return FleetDist{&deviceFamily, t}, nil
}

// ParseNetDist parses a bandwidth-distribution spec (grammar:
// internal/spec). Bandwidths are in Mbps, RTTs in milliseconds:
//
//	none                      no network pricing (free communication; also "")
//	const:UP,DOWN[,RTT]       every client the same link (RTT default 0);
//	                          const:inf,inf,0 is the unpriced reference link
//	uniform:MIN,MAX[,RTT]     each direction uniform in [MIN, MAX] Mbps
//	lognormal:MU,SIGMA[,RTT]  each direction exp(MU + SIGMA*N(0,1)) Mbps
//	tiered                    the default fleet,
//	                          tiered:5,20,80,0.3,20,50,40,0.6,1000,1000,5,0.1 —
//	                          30% edge links, 60% mobile, 10% server-class
//	tiered:UP,DOWN,RTT,FRAC,...  custom link tiers (quadruples; fractions
//	                          are normalized)
//
// Every argument is finite except a const or tiered bandwidth, which may
// be "inf": an unpriced direction. A finite bandwidth, a lognormal's
// largest draw included, is at most MaxFloat64/1e6 Mbps, so only "inf"
// mints an unpriced link. Each direction is drawn uplink first.
func ParseNetDist(text string) (FleetDist, error) {
	ts, err := netFamily.Parse(text)
	if err != nil || ts[0].Name == "none" {
		return FleetDist{}, err
	}
	t := ts[0]
	switch {
	case t.Name == "tiered" && len(t.Args) == 0:
		t.Args = []float64{5, 20, 80, 0.3, 20, 50, 40, 0.6, 1000, 1000, 5, 0.1}
	case t.Name != "tiered" && len(t.Args) == 2:
		t.Args = append(t.Args, 0)
	}
	a, ok, want := t.Args, true, ""
	switch t.Name {
	case "const":
		ok, want = a[0] > 0 && a[1] > 0 && a[2] >= 0 && finite(a[2]) && finiteBps(a[:2]...),
			"RTT >= 0 and positive (or inf) Mbps <= MaxFloat64/1e6"
	case "uniform":
		ok, want = a[0] > 0 && a[1] >= a[0] && a[2] >= 0 && finite(a...) && finiteBps(a[1]),
			"0 < MIN <= MAX <= MaxFloat64/1e6 and RTT >= 0"
	case "lognormal":
		ok, want = a[1] >= 0 && a[2] >= 0 && finite(a...) && lognormalFits(a[0], a[1], bitsPerMbps),
			"MU and SIGMA >= 0 and RTT >= 0 with MU + 12.01*SIGMA <= ln(MaxFloat64/1e6)"
	case "tiered":
		for i := 0; i < len(a); i += 4 {
			ok = ok && a[i] > 0 && a[i+1] > 0 && a[i+2] >= 0 && a[i+3] > 0 && finite(a[i+2], a[i+3]) && finiteBps(a[i:i+2]...)
		}
		want = "RTT >= 0 and fractions > 0 and positive (or inf) Mbps <= MaxFloat64/1e6"
	}
	if !ok {
		return FleetDist{}, netFamily.Errorf(text, "wants finite %s", want)
	}
	return FleetDist{&netFamily, t}, nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// check refuses a distribution that the field's own grammar, fam, did not
// parse.
func (d FleetDist) check(fam *spec.Family) error {
	if d.None() || d.fam == fam {
		return nil
	}
	return fmt.Errorf("core: the %s field holds the %s spec %s", fam.Label, d.fam.Label, d)
}

// The draw primitives every form shares. Each consumes exactly the draws
// it names, in argument order.

func uniform(rng *prng.Rand, lo, hi float64) float64 { return lo + float64(rng.Float64()*(hi-lo)) }

func lognormal(rng *prng.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*rng.NormFloat64()))
}

// pickTier draws one group of args (groups of width, each ending in its
// fraction) with probability proportional to that fraction.
func pickTier(rng *prng.Rand, args []float64, width int) []float64 {
	var total float64
	for i := width - 1; i < len(args); i += width {
		total += args[i]
	}
	u := rng.Float64() * total
	for i := 0; i < len(args); i += width {
		u -= args[i+width-1]
		if u < 0 {
			return args[i : i+width]
		}
	}
	return args[len(args)-width:]
}

// duration draws dispatch id's latency from rng. zero and const draw
// nothing.
func (d FleetDist) duration(id int, rng *prng.Rand) float64 {
	a := d.term.Args
	switch d.term.Name {
	case "const":
		return a[0]
	case "uniform":
		return uniform(rng, a[0], a[1])
	case "exp":
		return a[0] * rng.ExpFloat64()
	case "lognormal":
		return lognormal(rng, a[0], a[1])
	case "straggler":
		tier := a[0]
		if id%int(a[2]) == 0 {
			tier = a[1]
		}
		return tier * (0.9 + float64(0.2*rng.Float64()))
	}
	return 0
}

// speed derives client id's compute-speed multiplier from the id-th
// instance of the device stream, clamped into the representable range.
// scratch is re-seeded in place, so a lookup allocates nothing and the
// same id always yields the same speed.
func (d FleetDist) speed(id int, seed int64, scratch *prng.Rand) float64 {
	scratch.Reseed(streamSeed(seed, streamDevice, id))
	a := d.term.Args
	var s float64
	switch d.term.Name {
	case "uniform":
		s = uniform(scratch, a[0], a[1])
	case "lognormal":
		s = lognormal(scratch, a[0], a[1])
	case "tiered":
		s = pickTier(scratch, a, 2)[0]
	}
	return min(max(s, minDeviceSpeed), maxDeviceSpeed)
}

// link derives client id's link from the id-th instance of the network
// stream, the same way speed does.
func (d FleetDist) link(id int, seed int64, scratch *prng.Rand) link {
	scratch.Reseed(streamSeed(seed, streamNet, id))
	a := d.term.Args
	switch d.term.Name {
	case "uniform":
		up := uniform(scratch, a[0], a[1])
		return newLink(up, uniform(scratch, a[0], a[1]), a[2])
	case "lognormal":
		up := lognormal(scratch, a[0], a[1])
		return newLink(up, lognormal(scratch, a[0], a[1]), a[2])
	case "tiered":
		a = pickTier(scratch, a, 4)
	}
	return newLink(a[0], a[1], a[2])
}

// link is one client's network: bandwidths in bits per simulated second
// and round-trip time in simulated seconds. Infinite bandwidth and zero
// RTT price every transfer at 0.
type link struct{ upBps, downBps, rtt float64 }

// newLink converts CLI units (Mbps, ms) into base units, flooring finite
// bandwidths at minNetMbps.
func newLink(upMbps, downMbps, rttMs float64) link {
	bps := func(mbps float64) float64 {
		if math.IsInf(mbps, 1) {
			return mbps
		}
		return max(mbps, minNetMbps) * bitsPerMbps
	}
	return link{upBps: bps(upMbps), downBps: bps(downMbps), rtt: max(rttMs, 0) / 1000}
}

// transferTime prices one dispatch's wire traffic over the link.
func (l link) transferTime(downBytes, upBytes int64) float64 {
	return l.rtt + float64(downBytes)*8/l.downBps + float64(upBytes)*8/l.upBps
}
