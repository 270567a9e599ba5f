package core

import (
	"fmt"
	"math"

	"repro/internal/spec"
)

// PolicyKind names a policy's base aggregation rule.
type PolicyKind string

const (
	// PolicyFedAvg is the paper's Eq. 2: data-size weights, no staleness
	// discount, full replacement on merge. The sync runtime's default.
	PolicyFedAvg PolicyKind = "fedavg"
	// PolicyFedBuff is buffered asynchronous aggregation: each update
	// weighs its data size times Discount(staleness). The async and
	// barrier runtimes' default; at staleness 0 the discount is exactly 1,
	// so it reproduces PolicyFedAvg bit-for-bit in the barrier mode.
	PolicyFedBuff PolicyKind = "fedbuff"
	// PolicyFedAsync merges every single arrival: the global model moves
	// toward the arriving one by the mixing rate Arg * Discount(staleness)
	// (Arg 0 = the customary 0.6). A buffer of one normalizes any weight
	// to 1, so all of the staleness handling lives in the merge rate.
	PolicyFedAsync PolicyKind = "fedasync"
	// PolicyImportance is a FedBuff-style buffer whose weights also scale
	// with each update's training loss: |D_k| * Discount(staleness) *
	// (Arg + trainLoss). Clients the global model fits worst carry the
	// most new information; the smoothing constant Arg dampens well-fit
	// clients without dropping them (0 weights purely by loss).
	PolicyImportance PolicyKind = "importance"
	// PolicyMedian aggregates with the coordinate-wise median (up to half
	// the buffer can lie without moving a coordinate past the honest
	// values). For the three robust kinds weights only admit: a
	// zero-weighted update (rejected non-finite, past the staleness
	// cutoff) is excluded, admitted updates count equally.
	PolicyMedian PolicyKind = "median"
	// PolicyTrimmedMean aggregates with the coordinate-wise trimmed mean:
	// per coordinate, drop the floor(Arg*k) largest and smallest admitted
	// values and average the rest. A trim that would empty the window
	// degrades to the median.
	PolicyTrimmedMean PolicyKind = "trimmedmean"
	// PolicyKrum is a multi-Krum selector: score each admitted update by
	// the summed squared distances to its closest peers, keep the k - f
	// lowest-scoring (f = floor(Arg*k) suspected Byzantine) and average
	// them. Outliers are filtered entirely, which also defends against
	// attacks (large-sigma noise) coordinate-wise statistics only dampen.
	PolicyKrum PolicyKind = "krum"
)

// Policy is the server's merge decisions as one value: *when* buffered
// arrivals are aggregated and *how* each update is weighted and applied.
// The runtimes (synchronous, barrier, buffered async) stay mechanism —
// dispatching clients, advancing the clock, metering — while the policy
// holds what the async-FL literature varies: a base rule, a staleness
// discount, a hard staleness cutoff, a norm-clip guard and a server
// learning-rate schedule. ParsePolicy builds one from -policy text and
// String prints that text back; the zero value is the runtime's default
// policy, and RunSpec.Validate resolves whatever a value leaves unset.
//
// The synchronous and barrier runtimes merge exactly once per round, so
// they consult only Weight and MergeRate; the buffered async runtime also
// asks ReadyToMerge after every arrival. An Algorithm's Aggregator
// override still wins over any policy (it is a method-defined aggregation
// rule, e.g. SlowMo's server momentum).
type Policy struct {
	// Kind is the base rule ("" = fedavg on the sync runtime, fedbuff
	// otherwise).
	Kind PolicyKind
	// Arg is the base's one numeric argument — fedasync's ALPHA,
	// importance's BETA, trimmedmean's and krum's F — and 0 for the rest.
	Arg float64
	// Discount maps staleness to a weight (fedasync: rate) multiplier for
	// fedbuff, fedasync and importance (unset = PolyDiscount(0.5)). It
	// must return 1 at staleness 0 for the barrier equivalence to hold.
	Discount Rule
	// Cutoff turns on the hard staleness cutoff: an update staler than
	// MaxStale weighs 0 — it contributes nothing, and a buffer of nothing
	// but cutoff updates merges as a no-op. It is the admission control a
	// churning fleet needs: a client that drops mid-flight and rejoins
	// much later arrives many aggregations stale, which a polynomial
	// discount only dampens. MaxStale 0 admits fresh updates only, hence
	// the separate switch.
	Cutoff   bool
	MaxStale int
	// Clip, when positive, is the norm-clip guard: an update farther than
	// Clip (L2) from the current global model is rescaled onto that ball
	// before the merge. Scale attacks collapse to bounded steps; honest
	// updates inside the ball are untouched.
	Clip float64
	// ServerLR, when set, scales the merged delta by ServerLR.F(t) on
	// aggregation t (1-based), on top of the base rule's own rate.
	ServerLR Rule
	// k is the merge threshold Validate resolved: RunSpec.BufferSize, 1
	// for fedasync.
	k int
}

// Rule is an int -> float64 knob of a policy — a staleness discount
// (staleness -> weight multiplier) or a server learning-rate schedule
// (merge index -> rate multiplier) — together with the spec term that
// names it. PolyDiscount and ParseLRSchedule build named rules, which is
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

// ReadyToMerge reports whether the buffered async runtime should
// aggregate now, given the number of buffered arrivals.
func (p Policy) ReadyToMerge(buffered int) bool { return buffered >= p.k }

// Weight maps one buffered update (Staleness filled) to its unnormalized
// aggregation weight. Weights are normalized to sum to 1 before merging;
// an all-zero buffer merges as a no-op.
func (p Policy) Weight(u Update) float64 {
	if p.Cutoff && u.Staleness > p.MaxStale {
		return 0
	}
	switch p.Kind {
	case PolicyFedBuff:
		return float64(u.NumSamples) * p.Discount.F(u.Staleness)
	case PolicyFedAsync:
		return 1
	case PolicyImportance:
		return float64(u.NumSamples) * p.Discount.F(u.Staleness) * (p.Arg + u.TrainLoss)
	}
	return float64(u.NumSamples)
}

// MergeRate returns the server learning rate eta applied to aggregation
// t: global' = global + eta*(aggregate - global). eta = 1 replaces the
// global model with the aggregate (the classic FedAvg arithmetic).
func (p Policy) MergeRate(t int, updates []Update) float64 {
	eta := 1.0
	if p.Kind == PolicyFedAsync {
		// Single arrival in practice; average the discount if a caller
		// merges a larger buffer through this policy.
		var d float64
		for _, u := range updates {
			d += p.Discount.F(u.Staleness)
		}
		if len(updates) > 0 {
			d /= float64(len(updates))
		}
		eta = p.alpha() * d
	}
	if p.ServerLR.F != nil {
		eta *= p.ServerLR.F(t)
	}
	return eta
}

func (p Policy) alpha() float64 {
	if p.Arg == 0 {
		return 0.6
	}
	return p.Arg
}

// robust reports whether an order statistic replaces the weighted mean.
func (p Policy) robust() bool {
	return p.Kind == PolicyMedian || p.Kind == PolicyTrimmedMean || p.Kind == PolicyKrum
}

// discounts reports whether the base rule consults Discount.
func (p Policy) discounts() bool {
	return p.Kind == PolicyFedBuff || p.Kind == PolicyFedAsync || p.Kind == PolicyImportance
}

// String renders the policy in ParsePolicy's grammar, every argument
// included — the text the snapshot fingerprint embeds. The base comes
// first (none while Kind is unresolved), then maxstale, clip and the
// server-lr schedule, whatever order they were written in; a custom
// discount or schedule prints as "custom".
func (p Policy) String() string {
	var terms []string
	if p.Kind != "" {
		t := spec.T(string(p.Kind))
		switch {
		case p.Kind == PolicyFedAsync && (p.Arg != 0 || p.Discount.F != nil):
			t.Args = []float64{p.alpha()}
		case p.Kind == PolicyImportance, p.Kind == PolicyTrimmedMean, p.Kind == PolicyKrum:
			t.Args = []float64{p.Arg}
		}
		switch {
		case !p.discounts() || p.Discount.F == nil:
		case p.Discount.term.Name == "poly":
			t.Args = append(t.Args, p.Discount.term.Args...)
		default:
			t.Sub = &spec.Term{Name: p.Discount.String()}
		}
		terms = append(terms, t.String())
	}
	if p.Cutoff {
		terms = append(terms, spec.T("maxstale", float64(p.MaxStale)).String())
	}
	if p.Clip != 0 {
		terms = append(terms, spec.T("clip", p.Clip).String())
	}
	if p.ServerLR.F != nil {
		terms = append(terms, spec.Term{Name: "lr", Sub: &spec.Term{Name: p.ServerLR.String()}}.String())
	}
	return spec.Join(terms...)
}

// resolve fills what a policy leaves to the run — the base rule from the
// runtime, the merge threshold from the buffer size, the discount from
// PolyDiscount(0.5) — and range-checks what it carries. It is the one
// place any of the three is defaulted.
func (p *Policy) resolve(rt Runtime, buffer int) error {
	if p.Kind == "" {
		p.Kind = PolicyFedBuff
		if rt == RuntimeSync {
			p.Kind = PolicyFedAvg
		}
	}
	ok, want := p.Arg == 0, "no argument"
	switch p.Kind {
	case PolicyFedAvg, PolicyFedBuff, PolicyMedian:
	case PolicyFedAsync:
		ok, want = p.Arg >= 0 && p.Arg <= 1, "ALPHA in (0,1]"
	case PolicyImportance:
		ok, want = p.Arg >= 0, "BETA >= 0"
	case PolicyTrimmedMean, PolicyKrum:
		ok, want = p.Arg >= 0 && p.Arg < 0.5, "a fraction in [0, 0.5)"
	default:
		return fmt.Errorf("core: unknown policy kind %q", p.Kind)
	}
	switch {
	case !ok:
		return fmt.Errorf("core: policy %s wants %s, got %g", p.Kind, want, p.Arg)
	case !p.discounts() && p.Discount.F != nil:
		return fmt.Errorf("core: policy %s takes no staleness discount (fedbuff is fedavg with one)", p.Kind)
	case p.MaxStale < 0 || !p.Cutoff && p.MaxStale != 0:
		return fmt.Errorf("core: max staleness %d needs Cutoff set and a cutoff >= 0", p.MaxStale)
	case !(p.Clip >= 0) || math.IsInf(p.Clip, 0):
		return fmt.Errorf("core: norm-clip bound %g must be positive and finite", p.Clip)
	}
	p.k = buffer
	if p.Kind == PolicyFedAsync {
		p.k = 1
	}
	if p.discounts() && p.Discount.F == nil {
		p.Discount = PolyDiscount(0.5)
	}
	return nil
}

var lrFamily = spec.Family{Label: "server-lr", Forms: []spec.Form{
	{Name: "const", Min: 1, Max: 1}, {Name: "invsqrt", Min: 1, Max: 1}, {Name: "step", Min: 3, Max: 3},
}}

// ParseLRSchedule parses a server learning-rate schedule spec (grammar:
// internal/spec) into the named Rule a Policy's ServerLR field takes:
//
//	const:ETA          fixed rate ETA every merge
//	invsqrt:ETA0       ETA0 / sqrt(t)
//	step:ETA0,G,E      ETA0 * G^floor((t-1)/E)  (decay by G every E merges)
func ParseLRSchedule(text string) (Rule, error) {
	ts, err := lrFamily.Parse(text)
	if err != nil {
		return Rule{}, err
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
		return Rule{}, lrFamily.Errorf(text, "wants %s", want)
	}
	return Rule{F: f, term: ts[0]}, nil
}

var policyFamily = spec.Family{Label: "policy", Forms: []spec.Form{
	{Name: string(PolicyFedAvg)}, {Name: string(PolicyFedBuff), Max: 1},
	{Name: string(PolicyFedAsync), Max: 2}, {Name: string(PolicyImportance), Max: 2},
	{Name: string(PolicyMedian)}, {Name: string(PolicyTrimmedMean), Min: 1, Max: 1}, {Name: string(PolicyKrum), Min: 1, Max: 1},
	{Name: "maxstale", Min: 1, Max: 1, Pos: spec.Either},
	{Name: "clip", Min: 1, Max: 1, Pos: spec.Either},
}}

// ParsePolicy parses an aggregation-policy spec (grammar: internal/spec):
//
//	fedavg               data-size weights, no discount (sync default)
//	fedbuff[:EXP]        staleness-discounted buffer, PolyDiscount(EXP)
//	                     (no EXP: 0.5)
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
// maxstale and clip guard the base they follow ("+"-composed, e.g.
// "fedbuff:0.5+maxstale:8", "trimmedmean:0.25+clip:5") and, written
// alone, the runtime's default policy; a policy has one of each, so a
// second is a duplicate. The merge threshold comes from
// RunSpec.BufferSize at Validate time; a server learning-rate schedule
// is ParseLRSchedule's, set as the ServerLR field.
func ParsePolicy(text string) (Policy, error) {
	ts, err := policyFamily.Parse(text)
	if err != nil {
		return Policy{}, err
	}
	var p Policy
	for _, t := range ts {
		a, want := t.Args, ""
		need := func(ok bool, what string) {
			if !ok && want == "" {
				want = what
			}
		}
		// discount maps an optional trailing exponent argument to a
		// discount (unset = Validate's PolyDiscount(0.5)).
		discount := func(i int) Rule {
			if len(a) <= i {
				return Rule{}
			}
			need(a[i] >= 0, "a discount exponent >= 0")
			return PolyDiscount(a[i])
		}
		kind := PolicyKind(t.Name)
		switch kind {
		case "maxstale":
			need(a[0] >= 0 && a[0] <= math.MaxInt32 && a[0] == math.Trunc(a[0]), "a nonnegative integer cutoff")
			p.Cutoff, p.MaxStale = true, int(a[0])
		case "clip":
			need(a[0] > 0 && !math.IsInf(a[0], 0), "a positive finite norm bound")
			p.Clip = a[0]
		case PolicyFedAvg, PolicyMedian:
			p.Kind = kind
		case PolicyFedBuff:
			p.Kind, p.Discount = kind, discount(0)
		case PolicyFedAsync:
			p.Kind, p.Discount = kind, discount(1)
			if len(a) > 0 {
				p.Arg = a[0]
				need(a[0] > 0 && a[0] <= 1, "ALPHA in (0,1]")
			}
		case PolicyImportance:
			p.Kind, p.Arg, p.Discount = kind, 0.1, discount(1)
			if len(a) > 0 {
				p.Arg = a[0]
				need(a[0] >= 0, "BETA >= 0")
			}
		case PolicyTrimmedMean, PolicyKrum:
			p.Kind, p.Arg = kind, a[0]
			need(a[0] >= 0 && a[0] < 0.5, "a fraction in [0, 0.5)")
		}
		if want != "" {
			return Policy{}, policyFamily.Errorf(text, "%s wants %s", t.Name, want)
		}
	}
	return p, nil
}
