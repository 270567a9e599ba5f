// Network heterogeneity: per-client bandwidth/RTT profiles that price
// communication in simulated time.
//
// Device profiles (device.go) made *compute* a priced resource: a
// dispatch's duration derives from its metered FLOPs. This file does the
// same for the *network*. A NetDistribution samples one NetProfile per
// client at fleet construction — uplink and downlink bandwidth plus a
// round-trip latency — and the async runtimes add, on top of each
// dispatch's compute (or latency-model) duration, the time its transfers
// actually took:
//
//	rtt + downBytes*8/downBps + upBytes*8/upBps
//
// where downBytes/upBytes are the bytes the configured Transport really
// moved for that dispatch (the exact encoded sizes its transfers return;
// without a transport the analytic float32 accounting is used). Compression
// therefore genuinely buys simulated time, not just smaller comm columns.
//
// Profiles draw from a dedicated named seed stream (streamNet), so
// enabling them never perturbs the selection, latency, device, or churn
// streams — and an infinite-bandwidth zero-RTT fleet reproduces the
// unpriced trajectory bit-for-bit (pinned by
// TestInfiniteBandwidthMatchesPlainAsync).
package core

import (
	"math"

	"repro/internal/prng"
	"repro/internal/spec"
)

// Bandwidths are clamped at sampling time so a heavy-tailed draw cannot
// mint a client whose transfer time is effectively infinite. +Inf is
// allowed explicitly (the unpriced reference link); zero and negative
// draws are floored.
const minNetMbps = 0.01

// NetProfile is one client's link: bandwidths in bits per simulated
// second and round-trip time in simulated seconds. Infinite bandwidth
// and zero RTT (the zero cost profile) price every transfer at 0.
type NetProfile struct {
	UpBps, DownBps float64
	RTT            float64
}

// transferTime prices one dispatch's wire traffic under this profile.
func (p NetProfile) transferTime(downBytes, upBytes int64) float64 {
	return p.RTT + float64(downBytes)*8/p.DownBps + float64(upBytes)*8/p.UpBps
}

// NetDistribution samples per-client network profiles. SampleNet must
// draw all randomness from the supplied rng; the runtime samples every
// client once at construction from a dedicated seed stream, in
// client-ID order. Implementations take bandwidths in Mbps and RTTs in
// milliseconds (the CLI units) and return profiles in base units.
type NetDistribution interface {
	SampleNet(clientID int, rng *prng.Rand) NetProfile
	String() string
}

// netProfile converts CLI units (Mbps, ms) into a NetProfile in base
// units, flooring finite bandwidths at minNetMbps.
func netProfile(upMbps, downMbps, rttMs float64) NetProfile {
	clamp := func(mbps float64) float64 {
		if math.IsInf(mbps, 1) {
			return mbps
		}
		if mbps < minNetMbps {
			mbps = minNetMbps
		}
		return mbps * 1e6
	}
	if rttMs < 0 {
		rttMs = 0
	}
	return NetProfile{UpBps: clamp(upMbps), DownBps: clamp(downMbps), RTT: rttMs / 1000}
}

// ConstNet gives every client the same link. const:inf,inf,0 is the
// zero-cost reference fleet.
type ConstNet struct{ Up, Down, RTT float64 } // Mbps, Mbps, ms

func (d ConstNet) SampleNet(int, *prng.Rand) NetProfile {
	return netProfile(d.Up, d.Down, d.RTT)
}
func (d ConstNet) String() string { return spec.T("const", d.Up, d.Down, d.RTT).String() }

// UniformNet draws uplink and downlink bandwidth independently and
// uniformly from [Min, Max] Mbps (uplink first), with a fixed RTT.
type UniformNet struct{ Min, Max, RTT float64 }

func (d UniformNet) SampleNet(_ int, rng *prng.Rand) NetProfile {
	up := d.Min + rng.Float64()*(d.Max-d.Min)
	down := d.Min + rng.Float64()*(d.Max-d.Min)
	return netProfile(up, down, d.RTT)
}
func (d UniformNet) String() string { return spec.T("uniform", d.Min, d.Max, d.RTT).String() }

// LognormalNet draws each direction's bandwidth as exp(Mu + Sigma*N(0,1))
// Mbps (uplink first) — the heavy-tailed link spread of real fleets —
// with a fixed RTT.
type LognormalNet struct{ Mu, Sigma, RTT float64 }

func (d LognormalNet) SampleNet(_ int, rng *prng.Rand) NetProfile {
	up := math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
	down := math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
	return netProfile(up, down, d.RTT)
}
func (d LognormalNet) String() string { return spec.T("lognormal", d.Mu, d.Sigma, d.RTT).String() }

// NetTier is one slice of a TieredNet fleet: Frac of the clients get the
// (Up, Down, RTT) link.
type NetTier struct{ Up, Down, RTT, Frac float64 }

// TieredNet assigns each client to a link tier by fraction — the
// edge/mobile/server split of the device tiers applied to the network.
// Fractions are normalized at sampling time.
type TieredNet struct{ Tiers []NetTier }

// DefaultNetTiers is the canonical three-tier fleet, mirroring
// DefaultTiers' fractions: 30% constrained edge links (5 Mbps up, 20
// down, 80 ms), 60% mobile (20 up, 50 down, 40 ms), 10% server-class
// (1000/1000, 5 ms).
func DefaultNetTiers() TieredNet {
	return TieredNet{Tiers: []NetTier{
		{Up: 5, Down: 20, RTT: 80, Frac: 0.3},
		{Up: 20, Down: 50, RTT: 40, Frac: 0.6},
		{Up: 1000, Down: 1000, RTT: 5, Frac: 0.1},
	}}
}

func (d TieredNet) SampleNet(_ int, rng *prng.Rand) NetProfile {
	var total float64
	for _, t := range d.Tiers {
		total += t.Frac
	}
	u := rng.Float64() * total
	pick := d.Tiers[len(d.Tiers)-1]
	for _, t := range d.Tiers {
		u -= t.Frac
		if u < 0 {
			pick = t
			break
		}
	}
	return netProfile(pick.Up, pick.Down, pick.RTT)
}

func (d TieredNet) String() string {
	t := spec.T("tiered")
	for _, tier := range d.Tiers {
		t.Args = append(t.Args, tier.Up, tier.Down, tier.RTT, tier.Frac)
	}
	return t.String()
}

var netFamily = spec.Family{Label: "bandwidth-dist", Empty: "none", Forms: []spec.Form{
	{Name: "none"}, {Name: "const", Min: 2, Max: 3}, {Name: "uniform", Min: 2, Max: 3},
	{Name: "lognormal", Min: 2, Max: 3}, {Name: "tiered", Max: -1, Group: 4},
}}

// ParseNetDist parses a bandwidth-distribution spec (grammar:
// internal/spec). Bandwidths are in Mbps ("inf" accepted — an unpriced
// direction), RTTs in milliseconds:
//
//	none                      no network pricing (free communication; also "")
//	const:UP,DOWN[,RTT]       every client the same link (RTT default 0)
//	uniform:MIN,MAX[,RTT]     each direction uniform in [MIN, MAX] Mbps
//	lognormal:MU,SIGMA[,RTT]  each direction exp(MU + SIGMA*N(0,1)) Mbps
//	tiered                    the default edge/mobile/server link fleet
//	tiered:UP,DOWN,RTT,FRAC,...  custom link tiers (quadruples)
func ParseNetDist(text string) (NetDistribution, error) {
	ts, err := netFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	a := ts[0].Args
	if ts[0].Name == "tiered" {
		if len(a) == 0 {
			return DefaultNetTiers(), nil
		}
		d := TieredNet{}
		for i := 0; i < len(a); i += 4 {
			if !(a[i] > 0 && a[i+1] > 0 && a[i+2] >= 0 && a[i+3] > 0) {
				return nil, netFamily.Errorf(text, "wants positive bandwidths and fractions and RTT >= 0")
			}
			d.Tiers = append(d.Tiers, NetTier{Up: a[i], Down: a[i+1], RTT: a[i+2], Frac: a[i+3]})
		}
		return d, nil
	}
	if len(a) == 2 {
		a = append(a, 0) // RTT defaults to 0
	}
	var (
		d    NetDistribution
		ok   bool
		want string
	)
	switch ts[0].Name {
	case "none":
		return nil, nil
	case "const":
		d, ok, want = ConstNet{Up: a[0], Down: a[1], RTT: a[2]}, a[0] > 0 && a[1] > 0, "positive Mbps"
	case "uniform":
		d, ok, want = UniformNet{Min: a[0], Max: a[1], RTT: a[2]}, a[0] > 0 && a[1] >= a[0] && !math.IsInf(a[1], 1), "0 < MIN <= MAX < inf"
	case "lognormal":
		d, ok, want = LognormalNet{Mu: a[0], Sigma: a[1], RTT: a[2]}, a[1] >= 0 && isFiniteF(a[0]) && isFiniteF(a[1]), "finite MU and SIGMA >= 0"
	}
	if !ok || !(a[2] >= 0) {
		return nil, netFamily.Errorf(text, "wants %s and RTT >= 0", want)
	}
	return d, nil
}

func isFiniteF(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// clientNetProfile derives client id's link statelessly from the id-th
// instance of the network stream. scratch is re-seeded in place, so a
// lookup allocates nothing; the same id always yields the same profile,
// which is what lets the runtime drop the fleet-wide profile array.
func clientNetProfile(id int, dist NetDistribution, seed int64, scratch *prng.Rand) NetProfile {
	scratch.Reseed(streamSeed(seed, streamNet, id))
	return dist.SampleNet(id, scratch)
}
