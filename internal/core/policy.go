package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AggregationPolicy owns the server's merge decisions: *when* buffered
// arrivals are aggregated and *how* each update is weighted and applied.
// The runtimes (synchronous, barrier, buffered async) stay mechanism —
// dispatching clients, advancing the clock, metering — while the policy
// supplies the algorithm-family decisions that the async-FL literature
// varies: FedAvg's data-size average, FedBuff's staleness-discounted
// buffers, FedAsync's single-arrival mixing, importance-weighted buffers,
// and server learning-rate schedules (compose any policy with a schedule
// via WithServerLR).
//
// The synchronous and barrier runtimes merge exactly once per round, so
// they consult only Weight and MergeRate; the buffered async runtime also
// asks ReadyToMerge after every arrival.
//
// An Algorithm's Aggregator override still wins over any policy (it is a
// method-defined aggregation rule, e.g. SlowMo's server momentum), and an
// Algorithm's StalenessWeighter overrides the staleness discount of the
// built-in discount-based policies.
type AggregationPolicy interface {
	// Name identifies the policy ("fedavg", "fedbuff", ...).
	Name() string
	// ReadyToMerge reports whether the buffered async runtime should
	// aggregate now, given the number of buffered arrivals. Called after
	// every arrival; must eventually return true as buffered grows.
	ReadyToMerge(buffered int) bool
	// Weight maps one buffered update (Staleness filled) to its
	// unnormalized aggregation weight. Weights are normalized to sum to 1
	// before merging; an all-zero buffer merges as a no-op.
	Weight(u Update) float64
	// MergeRate returns the server learning rate eta applied to
	// aggregation t: global' = global + eta*(weightedAvg - global).
	// eta = 1 replaces the global model with the weighted average (the
	// classic FedAvg arithmetic).
	MergeRate(t int, updates []Update) float64
}

// bufferSizer is implemented by built-in policies whose merge threshold
// can be defaulted from RunSpec.BufferSize when left zero.
type bufferSizer interface{ defaultBuffer(k int) }

// discounter is implemented by built-in policies whose staleness discount
// participates in the runtime's resolution chain: an Algorithm's
// StalenessWeighter force-overrides, otherwise RunSpec.Discount (then
// PolyDiscount(0.5)) fills a nil Discount field.
type discounter interface {
	defaultDiscount(d func(int) float64, force bool)
}

// FedAvgPolicy is the paper's Eq. 2: data-size weights, no staleness
// discount, full replacement on merge. It is the synchronous runtime's
// default. Under the buffered async runtime it merges every K arrivals
// (FedBuff's cadence without the discount).
type FedAvgPolicy struct {
	// K is the buffered-mode merge threshold (0 = RunSpec.BufferSize).
	K int
}

func (p *FedAvgPolicy) Name() string                    { return "fedavg" }
func (p *FedAvgPolicy) ReadyToMerge(buffered int) bool  { return buffered >= p.K }
func (p *FedAvgPolicy) Weight(u Update) float64         { return float64(u.NumSamples) }
func (p *FedAvgPolicy) MergeRate(int, []Update) float64 { return 1 }
func (p *FedAvgPolicy) defaultBuffer(k int) {
	if p.K <= 0 {
		p.K = k
	}
}

// FedBuffPolicy is buffered asynchronous aggregation with staleness
// discounting: merge every K arrivals, weight each update by its data
// size times Discount(staleness). It is the async runtime's default and,
// with the zero-staleness discount of exactly 1, reproduces FedAvgPolicy
// bit-for-bit in the barrier mode.
type FedBuffPolicy struct {
	// K is the number of arrivals per aggregation (0 = RunSpec.BufferSize).
	K int
	// Discount maps staleness to a weight multiplier (nil = the runtime's
	// resolution chain: StalenessWeighter, RunSpec.Discount,
	// PolyDiscount(0.5)). Must return 1 at staleness 0 for the barrier
	// equivalence mode to hold.
	Discount func(staleness int) float64
}

func (p *FedBuffPolicy) Name() string                   { return "fedbuff" }
func (p *FedBuffPolicy) ReadyToMerge(buffered int) bool { return buffered >= p.K }
func (p *FedBuffPolicy) Weight(u Update) float64 {
	return float64(u.NumSamples) * p.Discount(u.Staleness)
}
func (p *FedBuffPolicy) MergeRate(int, []Update) float64 { return 1 }
func (p *FedBuffPolicy) defaultBuffer(k int) {
	if p.K <= 0 {
		p.K = k
	}
}
func (p *FedBuffPolicy) defaultDiscount(d func(int) float64, force bool) {
	if force || p.Discount == nil {
		p.Discount = d
	}
}

// FedAsyncPolicy merges every single arrival FedAsync-style: the global
// model moves toward the arriving model by a mixing rate
// Alpha * Discount(staleness). The buffer always holds exactly one
// update, so the weight is immaterial (it normalizes to 1); all of the
// staleness handling lives in the merge rate.
type FedAsyncPolicy struct {
	// Alpha is the base mixing rate (0 = the customary 0.6).
	Alpha float64
	// Discount dampens the mixing rate by staleness (nil = resolution
	// chain, see FedBuffPolicy.Discount).
	Discount func(staleness int) float64
}

func (p *FedAsyncPolicy) Name() string                   { return "fedasync" }
func (p *FedAsyncPolicy) ReadyToMerge(buffered int) bool { return buffered >= 1 }
func (p *FedAsyncPolicy) Weight(Update) float64          { return 1 }
func (p *FedAsyncPolicy) MergeRate(t int, updates []Update) float64 {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 0.6
	}
	// Single arrival in practice; average the discount if a caller merges
	// a larger buffer through this policy.
	var d float64
	for _, u := range updates {
		d += p.Discount(u.Staleness)
	}
	if len(updates) > 0 {
		d /= float64(len(updates))
	}
	return alpha * d
}
func (p *FedAsyncPolicy) defaultDiscount(d func(int) float64, force bool) {
	if force || p.Discount == nil {
		p.Discount = d
	}
}

// ImportancePolicy is a FedBuff-style buffer whose weights also scale
// with each update's training loss: weight = |D_k| * Discount(staleness)
// * (Beta + trainLoss). Clients whose local data the global model fits
// worst carry the most new information, so their updates are amplified;
// Beta smooths the weighting so well-fit clients are dampened, never
// dropped. Beta = 0 weights purely by loss.
type ImportancePolicy struct {
	// K is the number of arrivals per aggregation (0 = RunSpec.BufferSize).
	K int
	// Beta is the loss-smoothing constant (0 keeps pure loss weighting;
	// the parser defaults it to 0.1).
	Beta float64
	// Discount is the staleness discount (nil = resolution chain).
	Discount func(staleness int) float64
}

func (p *ImportancePolicy) Name() string                   { return "importance" }
func (p *ImportancePolicy) ReadyToMerge(buffered int) bool { return buffered >= p.K }
func (p *ImportancePolicy) Weight(u Update) float64 {
	return float64(u.NumSamples) * p.Discount(u.Staleness) * (p.Beta + u.TrainLoss)
}
func (p *ImportancePolicy) MergeRate(int, []Update) float64 { return 1 }
func (p *ImportancePolicy) defaultBuffer(k int) {
	if p.K <= 0 {
		p.K = k
	}
}
func (p *ImportancePolicy) defaultDiscount(d func(int) float64, force bool) {
	if force || p.Discount == nil {
		p.Discount = d
	}
}

// MaxStalenessPolicy is a hard staleness admission cutoff decorating any
// policy (promoted from the README's custom-policy example, where it
// lived as ~20 user lines): an update whose Staleness exceeds MaxStale
// weighs 0 at aggregation — it contributes nothing, and a buffer of
// nothing but cutoff updates merges as a no-op (the weighted-average
// guard, not a NaN). The pooled upload buffer is recycled either way.
// It is the admission control a churning fleet needs: a client that
// drops mid-flight and rejoins much later arrives with an update many
// aggregations stale, which a polynomial discount only dampens.
type MaxStalenessPolicy struct {
	// AggregationPolicy is the decorated policy (nil = the runtime's
	// default policy at Validate time).
	AggregationPolicy
	// MaxStale is the largest admissible staleness (inclusive).
	MaxStale int
}

// WithMaxStaleness wraps a policy (nil = the runtime's default policy)
// with a hard staleness cutoff.
func WithMaxStaleness(p AggregationPolicy, maxStale int) AggregationPolicy {
	return &MaxStalenessPolicy{AggregationPolicy: p, MaxStale: maxStale}
}

func (p *MaxStalenessPolicy) Name() string {
	if p.AggregationPolicy == nil {
		return "+maxstale"
	}
	return p.AggregationPolicy.Name() + "+maxstale"
}

func (p *MaxStalenessPolicy) Weight(u Update) float64 {
	if u.Staleness > p.MaxStale {
		return 0
	}
	return p.AggregationPolicy.Weight(u)
}

func (p *MaxStalenessPolicy) defaultBuffer(k int) {
	if bs, ok := p.AggregationPolicy.(bufferSizer); ok {
		bs.defaultBuffer(k)
	}
}

func (p *MaxStalenessPolicy) defaultDiscount(d func(int) float64, force bool) {
	if dc, ok := p.AggregationPolicy.(discounter); ok {
		dc.defaultDiscount(d, force)
	}
}

// ScheduledLR decorates a policy with a server learning-rate schedule:
// the merged delta is scaled by Schedule(t) on aggregation t, on top of
// whatever rate the inner policy reports. A nil inner policy is filled
// with the runtime's default policy at Validate time, so a schedule can
// be configured on its own.
type ScheduledLR struct {
	AggregationPolicy
	// Schedule maps the aggregation index t (1-based) to a rate
	// multiplier.
	Schedule func(t int) float64
}

func (p *ScheduledLR) Name() string {
	if p.AggregationPolicy == nil {
		return "+lr"
	}
	return p.AggregationPolicy.Name() + "+lr"
}

func (p *ScheduledLR) MergeRate(t int, updates []Update) float64 {
	return p.AggregationPolicy.MergeRate(t, updates) * p.Schedule(t)
}

func (p *ScheduledLR) defaultBuffer(k int) {
	if bs, ok := p.AggregationPolicy.(bufferSizer); ok {
		bs.defaultBuffer(k)
	}
}

func (p *ScheduledLR) defaultDiscount(d func(int) float64, force bool) {
	if dc, ok := p.AggregationPolicy.(discounter); ok {
		dc.defaultDiscount(d, force)
	}
}

// WithServerLR wraps a policy (nil = the runtime's default policy) with a
// server learning-rate schedule.
func WithServerLR(p AggregationPolicy, schedule func(t int) float64) AggregationPolicy {
	return &ScheduledLR{AggregationPolicy: p, Schedule: schedule}
}

// ParseLRSchedule parses a CLI server learning-rate schedule spec:
//
//	const:ETA          fixed rate ETA every merge
//	invsqrt:ETA0       ETA0 / sqrt(t)
//	step:ETA0,G,E      ETA0 * G^floor((t-1)/E)  (decay by G every E merges)
func ParseLRSchedule(spec string) (func(t int) float64, error) {
	name, args, err := parseSpec(spec, "server-lr")
	if err != nil {
		return nil, err
	}
	want := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("core: server-lr %q wants %d args, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "const":
		if err := want(1); err != nil {
			return nil, err
		}
		if args[0] < 0 {
			return nil, fmt.Errorf("core: negative server lr %g", args[0])
		}
		eta := args[0]
		return func(int) float64 { return eta }, nil
	case "invsqrt":
		if err := want(1); err != nil {
			return nil, err
		}
		if args[0] <= 0 {
			return nil, fmt.Errorf("core: invsqrt server lr %g must be positive", args[0])
		}
		eta0 := args[0]
		return func(t int) float64 {
			if t < 1 {
				t = 1
			}
			return eta0 / math.Sqrt(float64(t))
		}, nil
	case "step":
		if err := want(3); err != nil {
			return nil, err
		}
		if args[0] <= 0 || args[1] <= 0 || args[1] > 1 || args[2] < 1 {
			return nil, fmt.Errorf("core: step server lr wants eta0 > 0, 0 < gamma <= 1, every >= 1, got %v", args)
		}
		eta0, gamma, every := args[0], args[1], int(args[2])
		return func(t int) float64 {
			if t < 1 {
				t = 1
			}
			return eta0 * math.Pow(gamma, float64((t-1)/every))
		}, nil
	}
	return nil, fmt.Errorf("core: unknown server-lr schedule %q (const|invsqrt|step)", name)
}

// ParsePolicy parses a CLI aggregation-policy spec of the form "name" or
// "name:arg1[,arg2]":
//
//	fedavg               data-size weights, no discount (sync default)
//	fedbuff[:EXP]        staleness-discounted buffer, PolyDiscount(EXP)
//	                     (no EXP: the runtime's discount chain applies)
//	fedasync[:ALPHA[,EXP]]  single-arrival mixing at rate ALPHA (0.6)
//	importance[:BETA[,EXP]] loss-weighted buffer, smoothing BETA (0.1)
//	maxstale:MAX         hard staleness cutoff (weight 0 past MAX) on
//	                     the runtime's default policy
//	median               coordinate-wise median of the admitted buffer
//	trimmedmean:F        coordinate-wise mean after trimming the F
//	                     fraction from each tail (0 <= F < 0.5)
//	krum:F               multi-Krum selector assuming a Byzantine
//	                     fraction F of the buffer (0 <= F < 0.5)
//	clip:C               norm-clip guard (updates rescaled within L2
//	                     distance C of the global model) on the
//	                     runtime's default policy
//
// A trailing "+maxstale:MAX" or "+clip:C" composes onto any other spec
// (e.g. "fedbuff:0.5+maxstale:8", "trimmedmean:0.25+clip:5"); suffixes
// stack rightmost-first. Merge thresholds (K) default from
// RunSpec.BufferSize at Validate time. Compose a server learning-rate
// schedule with WithServerLR / ParseLRSchedule.
func ParsePolicy(spec string) (AggregationPolicy, error) {
	if i := strings.LastIndex(spec, "+"); i >= 0 {
		base, suffix := spec[:i], spec[i+1:]
		sufName, sufArg, _ := strings.Cut(suffix, ":")
		var inner AggregationPolicy
		var err error
		if base != "" {
			inner, err = ParsePolicy(base)
			if err != nil {
				return nil, err
			}
		}
		switch sufName {
		case "maxstale":
			max, err := strconv.Atoi(strings.TrimSpace(sufArg))
			if err != nil || max < 0 {
				return nil, fmt.Errorf("core: maxstale cutoff %q must be a nonnegative integer", sufArg)
			}
			return WithMaxStaleness(inner, max), nil
		case "clip":
			c, err := strconv.ParseFloat(strings.TrimSpace(sufArg), 64)
			if err != nil || c <= 0 || math.IsInf(c, 0) {
				return nil, fmt.Errorf("core: clip bound %q must be a positive number", sufArg)
			}
			return WithNormClip(inner, c), nil
		}
		return nil, fmt.Errorf("core: unknown policy suffix %q (maxstale|clip)", sufName)
	}
	name, args, err := parseSpec(spec, "policy")
	if err != nil {
		return nil, err
	}
	atMost := func(n int) error {
		if len(args) > n {
			return fmt.Errorf("core: policy %q wants at most %d args, got %d", name, n, len(args))
		}
		return nil
	}
	// optDiscount maps an optional trailing exponent arg to a discount
	// (nil = defer to the runtime's resolution chain).
	optDiscount := func(i int) (func(int) float64, error) {
		if len(args) <= i {
			return nil, nil
		}
		if args[i] < 0 {
			return nil, fmt.Errorf("core: policy %q discount exponent %g must be >= 0", name, args[i])
		}
		return PolyDiscount(args[i]), nil
	}
	// trimFrac validates a tail-trim / Byzantine fraction argument.
	trimFrac := func() (float64, error) {
		if len(args) != 1 || args[0] < 0 || args[0] >= 0.5 {
			return 0, fmt.Errorf("core: policy %q wants one fraction in [0, 0.5), got %v", name, args)
		}
		return args[0], nil
	}
	switch name {
	case "maxstale":
		if len(args) != 1 || args[0] < 0 || args[0] != math.Trunc(args[0]) {
			return nil, fmt.Errorf("core: policy maxstale wants one nonnegative integer cutoff, got %v", args)
		}
		return WithMaxStaleness(nil, int(args[0])), nil
	case "clip":
		if len(args) != 1 || args[0] <= 0 || math.IsInf(args[0], 0) {
			return nil, fmt.Errorf("core: policy clip wants one positive norm bound, got %v", args)
		}
		return WithNormClip(nil, args[0]), nil
	case "median":
		if err := atMost(0); err != nil {
			return nil, err
		}
		return &MedianPolicy{}, nil
	case "trimmedmean":
		f, err := trimFrac()
		if err != nil {
			return nil, err
		}
		return &TrimmedMeanPolicy{Frac: f}, nil
	case "krum":
		f, err := trimFrac()
		if err != nil {
			return nil, err
		}
		return &KrumPolicy{Frac: f}, nil
	case "fedavg":
		if err := atMost(0); err != nil {
			return nil, err
		}
		return &FedAvgPolicy{}, nil
	case "fedbuff":
		if err := atMost(1); err != nil {
			return nil, err
		}
		d, err := optDiscount(0)
		if err != nil {
			return nil, err
		}
		return &FedBuffPolicy{Discount: d}, nil
	case "fedasync":
		if err := atMost(2); err != nil {
			return nil, err
		}
		alpha := 0.0
		if len(args) > 0 {
			alpha = args[0]
			if alpha <= 0 || alpha > 1 {
				return nil, fmt.Errorf("core: fedasync alpha %g outside (0,1]", alpha)
			}
		}
		d, err := optDiscount(1)
		if err != nil {
			return nil, err
		}
		return &FedAsyncPolicy{Alpha: alpha, Discount: d}, nil
	case "importance":
		if err := atMost(2); err != nil {
			return nil, err
		}
		beta := 0.1
		if len(args) > 0 {
			beta = args[0]
			if beta < 0 {
				return nil, fmt.Errorf("core: importance beta %g must be >= 0", beta)
			}
		}
		d, err := optDiscount(1)
		if err != nil {
			return nil, err
		}
		return &ImportancePolicy{Beta: beta, Discount: d}, nil
	}
	return nil, fmt.Errorf("core: unknown aggregation policy %q (fedavg|fedbuff|fedasync|importance|maxstale|median|trimmedmean|krum|clip)", name)
}
