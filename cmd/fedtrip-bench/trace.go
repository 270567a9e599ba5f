package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent indexes the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	// ID is shared by the spans of one pass and step ("pass/step", the
	// ordinal of each among its siblings); filled in by finish.
	ID string `json:"id"`
}

// tracer keeps spans in memory until the run ends. The benchmark's own
// goroutine opens and closes spans in stack order (begin/end); worker
// goroutines inside the runtime add completed spans (record) under
// whichever span is innermost at that moment. A nil *tracer is tracing
// off: every method is a no-op, so the untraced path carries no branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int // innermost open span of the benchmark goroutine, -1 if none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: t.cur})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.cur = t.spans[id].Parent
}

// record adds a completed span that began at start. Safe from any
// goroutine.
func (t *tracer) record(name string, start time.Time) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0)), Parent: t.cur})
}

// durationsMS returns the duration of every span called name, in
// milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span its child spans
	// cover (children on two workers may overlap; the union counts once).
	SelfMS float64 `json:"self_ms"`
}

// finish labels every span with its pass/step identifier and returns the
// per-layer totals and self times, ordered by name. Call once, after the
// last span closed.
func (t *tracer) finish() []layerStat {
	children := make(map[int][]int)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	// Pass and step ordinals, then each span inherits its ancestors'.
	passOf, stepOf := make([]int, len(t.spans)), make([]int, len(t.spans))
	passes, stepsUnder := 0, map[int]int{}
	for i, s := range t.spans { // a parent always precedes its children
		if s.Parent >= 0 {
			passOf[i], stepOf[i] = passOf[s.Parent], stepOf[s.Parent]
		}
		switch s.Name {
		case "bench.pass":
			passes++
			passOf[i] = passes
		case "core.step":
			stepsUnder[s.Parent]++
			stepOf[i] = stepsUnder[s.Parent]
		}
		t.spans[i].ID = fmt.Sprintf("%d/%d", passOf[i], stepOf[i])
	}

	var stats []layerStat
	index := map[string]int{} // name -> position in stats
	for i, s := range t.spans {
		at, ok := index[s.Name]
		if !ok {
			at = len(stats)
			index[s.Name] = at
			stats = append(stats, layerStat{Name: s.Name})
		}
		st := &stats[at]
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-t.covered(s, children[i])) / 1e6
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// covered returns how many nanoseconds of parent the union of the kids'
// intervals covers.
func (t *tracer) covered(parent span, kids []int) int64 {
	sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].Start < t.spans[kids[j]].Start })
	var total int64
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		lo, hi := t.spans[k].Start, t.spans[k].End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// stepPhases splits each Step into the three phases the runtime's own
// hooks delimit: Step start -> Config.OnUpdates (selection, dispatch,
// local training, the event loop) -> Config.OnRound (merge, metrics,
// evaluation hand-off) -> Step return.
type stepPhases struct {
	tr          *tracer
	step, phase int
}

func (p *stepPhases) start() {
	p.step = p.tr.begin("core.step")
	p.phase = p.tr.begin("core.train_phase")
}

func (p *stepPhases) onUpdates(int, []float64, []core.Update) {
	p.tr.end(p.phase)
	p.phase = p.tr.begin("core.merge_phase")
}

func (p *stepPhases) onRound(int, *core.Server) {
	p.tr.end(p.phase)
	p.phase = p.tr.begin("core.post_phase")
}

func (p *stepPhases) finish() {
	p.tr.end(p.phase)
	p.tr.end(p.step)
}

// tracedAlgo forwards to FedTrip and times each hook. FedTrip implements
// none of core's optional Algorithm capabilities, so neither does the
// wrapper — taking the concrete type keeps that true by construction.
type tracedAlgo struct {
	inner *core.FedTrip
	tr    *tracer
}

func (a *tracedAlgo) Name() string { return a.inner.Name() }

func (a *tracedAlgo) BeginRound(c *core.Client, round int, global []float64) {
	name := "algos.beginround"
	if c.LastRound == 0 {
		// Told apart so the trace can count distinct participants.
		name = "algos.beginround_first"
	}
	start := time.Now()
	a.inner.BeginRound(c, round, global)
	a.tr.record(name, start)
}

func (a *tracedAlgo) TransformGrad(c *core.Client, round int, w, g []float64) {
	start := time.Now()
	a.inner.TransformGrad(c, round, w, g)
	a.tr.record("algos.transformgrad", start)
}

func (a *tracedAlgo) EndRound(c *core.Client, round int) {
	start := time.Now()
	a.inner.EndRound(c, round)
	a.tr.record("algos.endround", start)
}

// wireTransport is what every comm.ParseTransport result offers beyond
// core.Transport: exact per-transfer sizes, cumulative byte counters, and
// the canonical spec string snapshots fingerprint.
type wireTransport interface {
	core.SizedTransport
	core.MeteredTransport
	fmt.Stringer
}

// tracedTransport forwards every call to inner and times the transfers.
type tracedTransport struct {
	inner wireTransport
	tr    *tracer
}

// tracedStatefulTransport adds the snapshot capability for an inner
// transport that has it (error-feedback residuals). A stateless inner
// must not gain it: core.Snapshot writes a presence flag from the type.
type tracedStatefulTransport struct {
	tracedTransport
	state core.StatefulTransport
}

// traceTransport wraps t, offering exactly the capabilities t offers.
func traceTransport(t core.Transport, tr *tracer) (core.Transport, error) {
	if t == nil {
		return nil, nil
	}
	wt, ok := t.(wireTransport)
	if !ok {
		return nil, fmt.Errorf("transport %T is not sized, metered and named; the trace wrapper would change how the runtime meters it", t)
	}
	tt := tracedTransport{inner: wt, tr: tr}
	if st, ok := t.(core.StatefulTransport); ok {
		return &tracedStatefulTransport{tracedTransport: tt, state: st}, nil
	}
	return &tt, nil
}

func (t *tracedTransport) String() string              { return t.inner.String() }
func (t *tracedTransport) WireBytes() (down, up int64) { return t.inner.WireBytes() }

func (t *tracedTransport) Down(clientID, round int, global []float64) []float64 {
	defer t.tr.record("comm.down", time.Now())
	return t.inner.Down(clientID, round, global)
}

func (t *tracedTransport) Up(clientID, round int, params []float64) []float64 {
	defer t.tr.record("comm.up", time.Now())
	return t.inner.Up(clientID, round, params)
}

func (t *tracedTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	defer t.tr.record("comm.down", time.Now())
	return t.inner.DownSized(clientID, round, global)
}

func (t *tracedTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	defer t.tr.record("comm.up", time.Now())
	return t.inner.UpSized(clientID, round, params)
}

func (t *tracedStatefulTransport) SnapshotState(w io.Writer) error { return t.state.SnapshotState(w) }
func (t *tracedStatefulTransport) RestoreState(r io.Reader) error  { return t.state.RestoreState(r) }
