// Fleet availability: clients drop out and rejoin.
//
// A ChurnModel is a per-client on/off Markov process (exponential up/down
// durations) plus a mass-dropout event injector (a fraction of the fleet
// lost at a scheduled virtual time, temporarily or permanently). Offline
// clients leave the population registry's idle set, so the dispatcher
// never picks them; a client that drops mid-flight pauses — its arrival is
// deferred past the rejoin, which is how genuinely stale updates (the
// maxstale cutoff's regime) arise. Permanently dropped clients lose their
// in-flight update entirely.
//
// The process draws from its own named seed stream (streamChurn in
// seeds.go), so enabling it never perturbs the selection, latency, device
// or network draws (fleet.go).
package core

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/spec"
)

// MassDrop is one injected mass-dropout event: at virtual time At, each
// online-or-offline (but not yet dead) client independently drops with
// probability Fraction. Duration > 0 schedules the rejoin; Duration <= 0
// kills the affected clients for the rest of the run (their in-flight
// updates are lost).
type MassDrop struct {
	At, Fraction, Duration float64
}

// ChurnModel describes the fleet's availability process: a per-client
// on/off Markov chain (exponential up/down durations) plus scheduled
// mass-dropout events. The zero value is invalid; a nil *ChurnModel on
// the RunSpec means a fully available fleet.
type ChurnModel struct {
	// MeanUp and MeanDown are the exponential means of the on and off
	// phases in simulated seconds. Both zero disables the Markov chain
	// (mass-dropout events only); otherwise both must be positive. The
	// steady-state offline fraction is MeanDown / (MeanUp + MeanDown).
	MeanUp, MeanDown float64
	// Drops are the injected mass-dropout events, in any order.
	Drops []MassDrop
}

// Validate checks the churn parameters.
func (m *ChurnModel) Validate() error {
	// Positive-form comparisons, so a NaN fails them.
	markov := m.MeanUp > 0 && m.MeanDown > 0
	if !markov && (m.MeanUp != 0 || m.MeanDown != 0) {
		return fmt.Errorf("core: churn wants both MeanUp and MeanDown positive (or both zero), got %g/%g", m.MeanUp, m.MeanDown)
	}
	if !markov && len(m.Drops) == 0 {
		return fmt.Errorf("core: churn model with neither a Markov process nor mass-dropout events")
	}
	for _, d := range m.Drops {
		if !(d.At >= 0 && d.Fraction > 0 && d.Fraction <= 1) || math.IsNaN(d.Duration) {
			return fmt.Errorf("core: mass drop wants at >= 0, 0 < fraction <= 1 and a duration, got %+v", d)
		}
	}
	return nil
}

// String renders the model in ParseChurn's grammar (a nil model is
// "none").
func (m *ChurnModel) String() string {
	if m == nil {
		return "none"
	}
	var terms []string
	if m.MeanUp > 0 {
		terms = append(terms, spec.T("markov", m.MeanUp, m.MeanDown).String())
	}
	for _, d := range m.Drops {
		terms = append(terms, spec.T("drop", d.At, d.Fraction, d.Duration).String())
	}
	if len(terms) == 0 {
		return "none"
	}
	return spec.Join(terms...)
}

var churnFamily = spec.Family{Label: "dropout", Empty: "none", Forms: []spec.Form{
	{Name: "none", Alone: true},
	{Name: "markov", Min: 2, Max: 2, Pos: spec.Either},
	{Name: "drop", Min: 3, Max: 3, Pos: spec.Either, Repeat: true},
}}

// ParseChurn parses a churn spec (grammar: internal/spec): "+"-composed
//
//	none                   no churn (nil model; also "")
//	markov:UP,DOWN         per-client on/off chain with exponential
//	                       mean up/down durations (seconds)
//	drop:AT,FRAC,DUR       mass dropout: at time AT, fraction FRAC of
//	                       the fleet drops for DUR seconds (DUR <= 0 =
//	                       permanently)
//
// e.g. "markov:90,10" or "markov:90,10+drop:60,0.3,30".
func ParseChurn(text string) (*ChurnModel, error) {
	ts, err := churnFamily.Parse(text)
	if err != nil || ts[0].Name == "none" {
		return nil, err
	}
	m := &ChurnModel{}
	for _, t := range ts {
		if t.Name == "markov" {
			m.MeanUp, m.MeanDown = t.Args[0], t.Args[1]
		} else {
			m.Drops = append(m.Drops, MassDrop{At: t.Args[0], Fraction: t.Args[1], Duration: t.Args[2]})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// churnEventKind discriminates the availability event queue. Only the
// O(#mass-drops) scheduled events live in the queue; the Markov chain's
// drop/rejoin events are sampled from two aggregate clocks (see churn).
type churnEventKind uint8

const (
	churnMass        churnEventKind = iota // a scheduled MassDrop fires (id = Drops index)
	churnGroupRejoin                       // a temporary mass drop's victims return (id = groups index)
)

// churnEvent is one entry of the availability event queue, ordered by
// (at, seq) — seq is the scheduling order, which makes replays
// deterministic even under simultaneous events.
type churnEvent struct {
	at   float64
	seq  int64
	id   int32
	kind churnEventKind
}

// churnHeap is a binary min-heap of churn events under container/heap
// (push/pop only — events are never removed or changed in place). The
// order is strict, so the array layout a snapshot serializes is fixed.
type churnHeap struct{ es []churnEvent }

func churnLess(a, b churnEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *churnHeap) Len() int { return len(h.es) }

func (h *churnHeap) Less(i, k int) bool { return churnLess(h.es[i], h.es[k]) }

func (h *churnHeap) Swap(i, k int) { h.es[i], h.es[k] = h.es[k], h.es[i] }

// Push appends a churnEvent; use heap.Push.
func (h *churnHeap) Push(x any) { h.es = append(h.es, x.(churnEvent)) }

// Pop removes the last event and returns it as a churnEvent; use heap.Pop.
func (h *churnHeap) Pop() any {
	last := len(h.es) - 1
	e := h.es[last]
	h.es = h.es[:last]
	return e
}

// churn is the runtime state of one fleet's availability process. All
// mutation happens on the event loop; there is no locking.
//
// The original implementation ran one lazily-scheduled Markov chain per
// client: an O(N) event heap plus offline/dead/generation arrays. At
// 100k–1M clients that is the dominant per-client state, so the chain is
// replaced by the exactly-equivalent aggregate CTMC view: with nUp
// clients online, the fleet's next Markov drop is the minimum of nUp
// i.i.d. Exp(1/MeanUp) clocks — Exp(nUp/MeanUp) — and which client drops
// is uniform over the online set; symmetrically for rejoins over the
// nDown Markov-offline clients with rate nDown/MeanDown. Memorylessness
// licenses resampling both aggregate clocks from the current segment
// sizes after every processed event, so the whole Markov process needs
// two floats of clock state. TestChurnAggregateMatchesPerClientChains
// pins the distribution equivalence against a reference per-client
// simulation at 10k clients.
//
// Per-client state is a permutation: order holds the client IDs
// partitioned into four contiguous segments — [0,nUp) online,
// [nUp,nUp+nDown) Markov-offline, [nUp+nDown,nUp+nDown+nSusp)
// mass-suspended (a temporary MassDrop's victims, which rejoin at the
// drop's fixed deadline, not the exponential clock), and the dead tail —
// and pos is its inverse. Segment moves are O(1) boundary swaps; uniform
// which-client sampling is one Intn over a segment. The event heap holds
// only the O(#Drops) scheduled mass events and group rejoins.
type churn struct {
	model ChurnModel
	rng   *prng.Rand
	n     int
	order []int32
	pos   []int32
	// Segment sizes; the dead count is n - nUp - nDown - nSusp.
	nUp, nDown, nSusp int
	// Absolute virtual times of the next aggregate Markov drop/rejoin;
	// +Inf when the source segment is empty or the chain is disabled.
	nextDrop, nextRejoin float64
	h                    churnHeap
	seq                  int64
	// groups[k] holds the victims of the k-th fired temporary mass drop,
	// restored together by its churnGroupRejoin event (nil afterwards). A
	// victim leaves its group only by dying, which the rejoin detects by
	// segment membership.
	groups [][]int32
}

// newChurn builds the availability process: every client starts online,
// with the aggregate Markov clocks armed and every mass drop
// pre-scheduled.
func newChurn(n int, m *ChurnModel, seed int64) *churn {
	c := &churn{
		model: *m,
		rng:   seedStream(seed, streamChurn),
		n:     n,
		order: make([]int32, n),
		pos:   make([]int32, n),
		nUp:   n,
	}
	for i := 0; i < n; i++ {
		c.order[i] = int32(i)
		c.pos[i] = int32(i)
	}
	for i, d := range m.Drops {
		c.schedule(d.At, int32(i), churnMass)
	}
	c.resample(0)
	return c
}

func (c *churn) schedule(at float64, id int32, kind churnEventKind) {
	heap.Push(&c.h, churnEvent{at: at, seq: c.seq, id: id, kind: kind})
	c.seq++
}

// resample rearms both aggregate Markov clocks from the current segment
// sizes at virtual time t. Valid after any state change because the
// exponential clocks are memoryless. Draw order (drop, then rejoin) is
// part of the deterministic-run contract.
func (c *churn) resample(t float64) {
	c.nextDrop = math.Inf(1)
	c.nextRejoin = math.Inf(1)
	if c.model.MeanUp <= 0 {
		return
	}
	if c.nUp > 0 {
		c.nextDrop = t + c.rng.ExpFloat64()*c.model.MeanUp/float64(c.nUp)
	}
	if c.nDown > 0 {
		c.nextRejoin = t + c.rng.ExpFloat64()*c.model.MeanDown/float64(c.nDown)
	}
}

// online reports whether the client is currently dispatchable.
func (c *churn) online(id int) bool { return int(c.pos[id]) < c.nUp }

// offlineCount returns how many clients are currently offline or dead.
func (c *churn) offlineCount() int { return c.n - c.nUp }

// next returns the virtual time of the earliest pending availability
// event, or false when the process has run dry (no future drops or
// rejoins — a fully dead fleet stays dead).
func (c *churn) next() (float64, bool) {
	t := math.Inf(1)
	if c.h.Len() > 0 {
		t = c.h.es[0].at
	}
	if c.nextDrop < t {
		t = c.nextDrop
	}
	if c.nextRejoin < t {
		t = c.nextRejoin
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	return t, true
}

// advance processes every availability event with time <= now, in event
// order. onDrop(id, at, permanent) fires when a client goes offline;
// onRejoin(id, at) when it returns. The callbacks run with the churn
// state already updated. Simultaneous events process deterministically:
// scheduled (heap) events first, then the aggregate drop, then the
// aggregate rejoin.
func (c *churn) advance(now float64, onDrop func(id int, at float64, permanent bool), onRejoin func(id int, at float64)) {
	for {
		t := math.Inf(1)
		kind := 0 // 0 = heap event, 1 = aggregate drop, 2 = aggregate rejoin
		if c.h.Len() > 0 {
			t = c.h.es[0].at
		}
		if c.nextDrop < t {
			t, kind = c.nextDrop, 1
		}
		if c.nextRejoin < t {
			t, kind = c.nextRejoin, 2
		}
		if t > now {
			return
		}
		switch kind {
		case 1:
			id := int(c.order[c.rng.Intn(c.nUp)])
			c.dropMarkov(id)
			onDrop(id, t, false)
		case 2:
			id := int(c.order[c.nUp+c.rng.Intn(c.nDown)])
			c.rejoinMarkov(id)
			onRejoin(id, t)
		default:
			e := heap.Pop(&c.h).(churnEvent)
			switch e.kind {
			case churnMass:
				c.massDrop(e, onDrop)
			case churnGroupRejoin:
				g := c.groups[e.id]
				c.groups[e.id] = nil
				for _, cid := range g {
					id := int(cid)
					p := int(c.pos[id])
					if p < c.nUp+c.nDown || p >= c.nUp+c.nDown+c.nSusp {
						continue // killed while suspended
					}
					c.unsuspend(id)
					onRejoin(id, e.at)
				}
			}
		}
		c.resample(t)
	}
}

// massDrop fires one scheduled MassDrop event.
func (c *churn) massDrop(e churnEvent, onDrop func(id int, at float64, permanent bool)) {
	d := c.model.Drops[e.id]
	var group []int32
	// Every client draws, in ID order and independent of its current
	// state, so the draw count (and everything downstream of this rng)
	// depends only on the fleet size.
	for id := 0; id < c.n; id++ {
		hit := c.rng.Float64() < d.Fraction
		if !hit {
			continue
		}
		p := int(c.pos[id])
		if p >= c.nUp+c.nDown+c.nSusp {
			continue // already dead
		}
		if d.Duration <= 0 {
			c.kill(id)
			onDrop(id, e.at, true)
			continue
		}
		if p >= c.nUp {
			// Already down (Markov or an earlier drop): its own rejoin
			// stands.
			continue
		}
		c.suspend(id)
		group = append(group, int32(id))
		onDrop(id, e.at, false)
	}
	if len(group) > 0 {
		c.groups = append(c.groups, group)
		c.schedule(e.at+d.Duration, int32(len(c.groups)-1), churnGroupRejoin)
	}
}

// swapPos exchanges the clients at order positions i and k.
func (c *churn) swapPos(i, k int) {
	a, b := c.order[i], c.order[k]
	c.order[i], c.order[k] = b, a
	c.pos[a], c.pos[b] = int32(k), int32(i)
}

// dropMarkov moves an online client to the Markov-offline segment.
func (c *churn) dropMarkov(id int) {
	c.swapPos(int(c.pos[id]), c.nUp-1)
	c.nUp--
	c.nDown++
}

// rejoinMarkov moves a Markov-offline client back online.
func (c *churn) rejoinMarkov(id int) {
	c.swapPos(int(c.pos[id]), c.nUp)
	c.nUp++
	c.nDown--
}

// suspend moves an online client to the mass-suspended segment.
func (c *churn) suspend(id int) {
	c.swapPos(int(c.pos[id]), c.nUp-1)
	c.swapPos(c.nUp-1, c.nUp+c.nDown-1)
	c.nUp--
	c.nSusp++
}

// unsuspend moves a mass-suspended client back online.
func (c *churn) unsuspend(id int) {
	s2 := c.nUp + c.nDown
	c.swapPos(int(c.pos[id]), s2)
	c.swapPos(s2, c.nUp)
	c.nUp++
	c.nSusp--
}

// kill moves a client from any live segment to the dead tail.
func (c *churn) kill(id int) {
	if int(c.pos[id]) < c.nUp {
		c.swapPos(int(c.pos[id]), c.nUp-1)
		c.nUp--
		c.nDown++
	}
	if int(c.pos[id]) < c.nUp+c.nDown {
		c.swapPos(int(c.pos[id]), c.nUp+c.nDown-1)
		c.nDown--
		c.nSusp++
	}
	c.swapPos(int(c.pos[id]), c.nUp+c.nDown+c.nSusp-1)
	c.nSusp--
}
