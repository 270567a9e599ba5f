package core

import (
	"fmt"
	"math"

	"repro/internal/spec"
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

// Rule is an int -> float64 knob of a run — a staleness discount
// (staleness -> weight multiplier) or a server learning-rate schedule
// (merge index -> rate multiplier) — together with the spec term that
// names it. PolyDiscount and WithServerLR build named rules, which is
// what lets a policy print itself exactly ("fedbuff:0.5") and the
// snapshot fingerprint tell PolyDiscount(0) from PolyDiscount(3). A
// hand-written closure is Rule{F: f}: it renders as "custom", and keeping
// it identical across a resume is the caller's responsibility. The zero
// Rule is unset.
type Rule struct {
	F    func(int) float64
	term spec.Term
}

// String renders the rule's spec term ("custom" for a bare closure).
func (r Rule) String() string {
	if r.term.Name == "" {
		return "custom"
	}
	return r.term.String()
}

// canonical renders a policy or a method for the snapshot fingerprint:
// its String() when it has one — the built-ins do, arguments included —
// and its Name() otherwise.
func canonical(v interface{ Name() string }) string {
	if s, ok := v.(fmt.Stringer); ok {
		return s.String()
	}
	return v.Name()
}

// discounted renders a discount-based policy: the name, its leading
// arguments, and the discount exponent once one is set (a custom discount
// prints as a trailing "custom").
func discounted(name string, d Rule, lead ...float64) string {
	t := spec.T(name, lead...)
	switch {
	case d.F == nil:
	case d.term.Name == "poly":
		t.Args = append(t.Args, d.term.Args...)
	default:
		t.Sub = &spec.Term{Name: d.String()}
	}
	return t.String()
}

// decoratedName is a decorator policy's Name(): the inner policy's plus a
// suffix.
func decoratedName(inner AggregationPolicy, suffix string) string {
	if inner == nil {
		return suffix
	}
	return inner.Name() + suffix
}

// decorated renders a decorator policy: the inner policy, then the
// decorator's own term (alone when the inner policy is still the
// unresolved runtime default).
func decorated(inner AggregationPolicy, t spec.Term) string {
	if inner == nil {
		return t.String()
	}
	return spec.Join(canonical(inner), t.String())
}

// bufferSizer is implemented by built-in policies whose merge threshold
// can be defaulted from RunSpec.BufferSize when left zero.
type bufferSizer interface{ defaultBuffer(k int) }

// discounter is implemented by built-in policies whose staleness discount
// participates in the runtime's resolution chain: an Algorithm's
// StalenessWeighter force-overrides, otherwise RunSpec.Discount (then
// PolyDiscount(0.5)) fills a nil Discount field.
type discounter interface {
	defaultDiscount(d Rule, force bool)
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
func (p *FedAvgPolicy) String() string                  { return "fedavg" }
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
	Discount Rule
}

func (p *FedBuffPolicy) Name() string                   { return "fedbuff" }
func (p *FedBuffPolicy) String() string                 { return discounted("fedbuff", p.Discount) }
func (p *FedBuffPolicy) ReadyToMerge(buffered int) bool { return buffered >= p.K }
func (p *FedBuffPolicy) Weight(u Update) float64 {
	return float64(u.NumSamples) * p.Discount.F(u.Staleness)
}
func (p *FedBuffPolicy) MergeRate(int, []Update) float64 { return 1 }
func (p *FedBuffPolicy) defaultBuffer(k int) {
	if p.K <= 0 {
		p.K = k
	}
}
func (p *FedBuffPolicy) defaultDiscount(d Rule, force bool) {
	if force || p.Discount.F == nil {
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
	Discount Rule
}

func (p *FedAsyncPolicy) Name() string                   { return "fedasync" }
func (p *FedAsyncPolicy) ReadyToMerge(buffered int) bool { return buffered >= 1 }
func (p *FedAsyncPolicy) Weight(Update) float64          { return 1 }
func (p *FedAsyncPolicy) String() string {
	if p.Alpha == 0 && p.Discount.F == nil {
		return "fedasync"
	}
	return discounted("fedasync", p.Discount, p.alpha())
}
func (p *FedAsyncPolicy) alpha() float64 {
	if p.Alpha == 0 {
		return 0.6
	}
	return p.Alpha
}
func (p *FedAsyncPolicy) MergeRate(t int, updates []Update) float64 {
	// Single arrival in practice; average the discount if a caller merges
	// a larger buffer through this policy.
	var d float64
	for _, u := range updates {
		d += p.Discount.F(u.Staleness)
	}
	if len(updates) > 0 {
		d /= float64(len(updates))
	}
	return p.alpha() * d
}
func (p *FedAsyncPolicy) defaultDiscount(d Rule, force bool) {
	if force || p.Discount.F == nil {
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
	Discount Rule
}

func (p *ImportancePolicy) Name() string                   { return "importance" }
func (p *ImportancePolicy) String() string                 { return discounted("importance", p.Discount, p.Beta) }
func (p *ImportancePolicy) ReadyToMerge(buffered int) bool { return buffered >= p.K }
func (p *ImportancePolicy) Weight(u Update) float64 {
	return float64(u.NumSamples) * p.Discount.F(u.Staleness) * (p.Beta + u.TrainLoss)
}
func (p *ImportancePolicy) MergeRate(int, []Update) float64 { return 1 }
func (p *ImportancePolicy) defaultBuffer(k int) {
	if p.K <= 0 {
		p.K = k
	}
}
func (p *ImportancePolicy) defaultDiscount(d Rule, force bool) {
	if force || p.Discount.F == nil {
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

func (p *MaxStalenessPolicy) Name() string { return decoratedName(p.AggregationPolicy, "+maxstale") }

func (p *MaxStalenessPolicy) String() string {
	return decorated(p.AggregationPolicy, spec.T("maxstale", float64(p.MaxStale)))
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

func (p *MaxStalenessPolicy) defaultDiscount(d Rule, force bool) {
	if dc, ok := p.AggregationPolicy.(discounter); ok {
		dc.defaultDiscount(d, force)
	}
}

// ScheduledLR decorates a policy with a server learning-rate schedule:
// the merged delta is scaled by Schedule.F(t) on aggregation t, on top of
// whatever rate the inner policy reports. A nil inner policy is filled
// with the runtime's default policy at Validate time, so a schedule can
// be configured on its own. WithServerLR builds one from a schedule spec;
// a hand-written schedule is &ScheduledLR{Schedule: Rule{F: f}}.
type ScheduledLR struct {
	AggregationPolicy
	// Schedule maps the aggregation index t (1-based) to a rate
	// multiplier.
	Schedule Rule
}

func (p *ScheduledLR) Name() string { return decoratedName(p.AggregationPolicy, "+lr") }

func (p *ScheduledLR) String() string {
	return decorated(p.AggregationPolicy, spec.Term{Name: "lr", Sub: &spec.Term{Name: p.Schedule.String()}})
}

func (p *ScheduledLR) MergeRate(t int, updates []Update) float64 {
	return p.AggregationPolicy.MergeRate(t, updates) * p.Schedule.F(t)
}

func (p *ScheduledLR) defaultBuffer(k int) {
	if bs, ok := p.AggregationPolicy.(bufferSizer); ok {
		bs.defaultBuffer(k)
	}
}

func (p *ScheduledLR) defaultDiscount(d Rule, force bool) {
	if dc, ok := p.AggregationPolicy.(discounter); ok {
		dc.defaultDiscount(d, force)
	}
}

var lrFamily = spec.Family{Label: "server-lr", Forms: []spec.Form{
	{Name: "const", Min: 1, Max: 1}, {Name: "invsqrt", Min: 1, Max: 1}, {Name: "step", Min: 3, Max: 3},
}}

// WithServerLR wraps a policy (nil = the runtime's default policy) with
// the server learning-rate schedule a spec names (grammar: internal/spec):
//
//	const:ETA          fixed rate ETA every merge
//	invsqrt:ETA0       ETA0 / sqrt(t)
//	step:ETA0,G,E      ETA0 * G^floor((t-1)/E)  (decay by G every E merges)
func WithServerLR(p AggregationPolicy, text string) (AggregationPolicy, error) {
	ts, err := lrFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	var (
		f    func(t int) float64
		a    = ts[0].Args
		ok   bool
		want string
	)
	switch ts[0].Name {
	case "const":
		ok, want = a[0] >= 0, "ETA >= 0"
		f = func(int) float64 { return a[0] }
	case "invsqrt":
		ok, want = a[0] > 0, "ETA0 > 0"
		f = func(t int) float64 { return a[0] / math.Sqrt(math.Max(float64(t), 1)) }
	case "step":
		ok, want = a[0] > 0 && a[1] > 0 && a[1] <= 1 && a[2] >= 1 && a[2] <= math.MaxInt32, "ETA0 > 0, 0 < G <= 1, E >= 1"
		every := int(a[2])
		f = func(t int) float64 { return a[0] * math.Pow(a[1], float64((max(t, 1)-1)/every)) }
	}
	if !ok {
		return nil, lrFamily.Errorf(text, "wants %s", want)
	}
	return &ScheduledLR{AggregationPolicy: p, Schedule: Rule{F: f, term: ts[0]}}, nil
}

// ParseLRSchedule parses a server learning-rate schedule spec (see
// WithServerLR) into the bare schedule function.
func ParseLRSchedule(text string) (func(t int) float64, error) {
	p, err := WithServerLR(nil, text)
	if err != nil {
		return nil, err
	}
	return p.(*ScheduledLR).Schedule.F, nil
}

var policyFamily = spec.Family{Label: "policy", Forms: []spec.Form{
	{Name: "fedavg"}, {Name: "fedbuff", Max: 1}, {Name: "fedasync", Max: 2}, {Name: "importance", Max: 2},
	{Name: "median"}, {Name: "trimmedmean", Min: 1, Max: 1}, {Name: "krum", Min: 1, Max: 1},
	{Name: "maxstale", Min: 1, Max: 1, Pos: spec.Either, Repeat: true},
	{Name: "clip", Min: 1, Max: 1, Pos: spec.Either, Repeat: true},
}}

// ParsePolicy parses an aggregation-policy spec (grammar: internal/spec):
//
//	fedavg               data-size weights, no discount (sync default)
//	fedbuff[:EXP]        staleness-discounted buffer, PolyDiscount(EXP)
//	                     (no EXP: the runtime's discount chain applies)
//	fedasync[:ALPHA[,EXP]]  single-arrival mixing at rate ALPHA (0.6)
//	importance[:BETA[,EXP]] loss-weighted buffer, smoothing BETA (0.1)
//	median               coordinate-wise median of the admitted buffer
//	trimmedmean:F        coordinate-wise mean after trimming the F
//	                     fraction from each tail (0 <= F < 0.5)
//	krum:F               multi-Krum selector assuming a Byzantine
//	                     fraction F of the buffer (0 <= F < 0.5)
//	maxstale:MAX         hard staleness cutoff (weight 0 past MAX)
//	clip:C               norm-clip guard (updates rescaled within L2
//	                     distance C of the global model)
//
// maxstale and clip decorate the policy they follow ("+"-composed, e.g.
// "fedbuff:0.5+maxstale:8", "trimmedmean:0.25+clip:5"; they stack left to
// right) and, written first, the runtime's default policy. Merge
// thresholds (K) default from RunSpec.BufferSize at Validate time.
// Compose a server learning-rate schedule with WithServerLR.
func ParsePolicy(text string) (AggregationPolicy, error) {
	ts, err := policyFamily.Parse(text)
	if err != nil {
		return nil, err
	}
	var p AggregationPolicy
	for _, t := range ts {
		a, want := t.Args, ""
		need := func(ok bool, what string) {
			if !ok && want == "" {
				want = what
			}
		}
		// discount maps an optional trailing exponent argument to a
		// discount (unset = defer to the runtime's resolution chain).
		discount := func(i int) Rule {
			if len(a) <= i {
				return Rule{}
			}
			need(a[i] >= 0, "a discount exponent >= 0")
			return PolyDiscount(a[i])
		}
		switch t.Name {
		case "fedavg":
			p = &FedAvgPolicy{}
		case "median":
			p = &MedianPolicy{}
		case "fedbuff":
			p = &FedBuffPolicy{Discount: discount(0)}
		case "fedasync":
			pol := &FedAsyncPolicy{Discount: discount(1)}
			if len(a) > 0 {
				pol.Alpha = a[0]
				need(a[0] > 0 && a[0] <= 1, "ALPHA in (0,1]")
			}
			p = pol
		case "importance":
			pol := &ImportancePolicy{Beta: 0.1, Discount: discount(1)}
			if len(a) > 0 {
				pol.Beta = a[0]
				need(a[0] >= 0, "BETA >= 0")
			}
			p = pol
		case "trimmedmean":
			p = &TrimmedMeanPolicy{Frac: a[0]}
			need(a[0] >= 0 && a[0] < 0.5, "a fraction in [0, 0.5)")
		case "krum":
			p = &KrumPolicy{Frac: a[0]}
			need(a[0] >= 0 && a[0] < 0.5, "a fraction in [0, 0.5)")
		case "maxstale":
			need(a[0] >= 0 && a[0] <= math.MaxInt32 && a[0] == math.Trunc(a[0]), "a nonnegative integer cutoff")
			p = WithMaxStaleness(p, int(a[0]))
		case "clip":
			need(a[0] > 0 && !math.IsInf(a[0], 0), "a positive finite norm bound")
			p = WithNormClip(p, a[0])
		}
		if want != "" {
			return nil, policyFamily.Errorf(text, "%s wants %s", t.Name, want)
		}
	}
	return p, nil
}
