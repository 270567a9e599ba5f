// Deterministic run snapshots: serialize a RunState at a round boundary
// and reconstruct it bit-for-bit in a fresh process.
//
// The format is a versioned, magic-headered binary stream:
//
//	"FTRS" | version u8 | fingerprint string | common section | loop section
//
// The fingerprint is a canonical string of everything that determines the
// run's trajectory: the canonical spec strings of the method (with its
// hyperparameters), the resolved policy (with its arguments, staleness
// discount and server-lr schedule), the latency/device/churn/network/
// fault models and the transport — the same text ParseX reads back —
// plus the scalar hyperparameters, seed, dataset sizes and a hash of the
// partition.
// Resume recomputes it from the spec the caller provides and refuses a
// snapshot whose fingerprint differs — a snapshot only carries the *live*
// state (model, RNG positions, event heap, metrics); everything
// re-derivable from the spec (datasets, partitions, device speeds,
// engines) is rebuilt, which keeps snapshots |w|-sized instead of
// dataset-sized.
//
// What makes the resumed run bit-identical to an uninterrupted one:
//
//   - Every RNG is a named splitmix64 stream whose position serializes in
//     17 bytes (internal/prng). A client stream that has not moved from
//     its seed is written as a flag alone and re-derived from the seed
//     registry.
//   - Snapshot quiesces: every in-flight job that waits to train trains
//     first. No job reads another's state or the server's, so training
//     early changes nothing — and afterwards the per-client state and the
//     job's finished update are plain data, and every job is priced. An
//     update the server holds compact (a patch, a float32 narrowing) is
//     written widened, dense, so the stream does not depend on how it
//     was held.
//   - Method rows held as a chain of recipes (lazyrows.go) stay one: the
//     stream carries the chain, and once each the round image a link
//     replays from, so the resumed run rebuilds the rows when the
//     uninterrupted one would, and a snapshot trains nothing.
//   - Order-sensitive scheduler state serializes verbatim: the idle set's
//     ids array (a uniform pick indexes into it, so its order is part of
//     the trajectory) and the churn heap's array layout. The event heap
//     is written sorted instead: where a dispatch bound is inexact,
//     pricing moves a job in the heap when it trains, so the live layout
//     depends on when jobs trained, and a snapshot trains them early.
//     Both heaps' keys are strict, so their pops, not their layouts, are
//     the trajectory; each is restored as read, and refused when an entry
//     sorts before its heap parent or its key is NaN, which no order
//     places.
//   - Optimizer state needs no section: every local round begins with
//     opt.Reset() (pinned by the optim package's tests), so there is no
//     cross-round optimizer state to save.
//   - The transport keeps nothing between uploads: an error-feedback
//     residual is a row of its client, walked with the client.
//   - The recorder writes no word it can derive, so none can disagree:
//     the cumulative traffic is the comm series' last entry, and Finish
//     finds the rounds-to-target in the accuracy list.
//
// Not snapshottable: methods with server-side aggregation state outside
// RunState (Aggregator/PreRounder implementors — SlowMo's momentum,
// SCAFFOLD's c, ...), and a transport that keeps state of its own
// (StatefulTransport). Snapshot refuses them with a precise error rather
// than silently resuming a half-restored run.
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/prng"
	"repro/internal/tensor"
)

const (
	snapMagic = "FTRS"
	// snapVersion 15 is the layout the walks below spell out, under a
	// fingerprint that covers the policy's arguments, the server-lr
	// schedule, the staleness discount and the method's hyperparameters.
	// Rows in the lazy regime travel as recipe chains: a round-image
	// section of one global per pinned version before the client walk,
	// and per client its chain, counted and oldest first, or the method's
	// rows; under a transport a chain rebuilds the error-feedback row too
	// and leaves the client's residual empty. A client's stream is written
	// when it has moved from its seed. The adversary section is the fault
	// assignment alone. The recorder section holds no word the run
	// derives. Version 14 also wrote a noise client's private stream, and
	// its residual beside its chain; a snapshot does not survive a format
	// bump: Resume refuses any other version, naming both.
	snapVersion = 15
)

// fingerprint canonically renders everything that determines the run's
// trajectory. Resume compares it string-to-string, so a mismatch error
// names what the caller changed. The resolved policy prints itself and
// the method renders through canonical, every argument included (FedTrip's
// mu, a trimmed-mean fraction, the resolved staleness discount, a
// server-lr schedule). What has no text form cannot be told apart: hooks
// and Shards never affect a trajectory by construction, but a hand-written
// discount or schedule closure prints as "custom", and a custom method as
// its bare Name() — keeping those identical across a resume is the
// caller's responsibility.
func (sp *RunSpec) fingerprint(numParams int) string {
	var b strings.Builder
	// The method's settings enter as a fixed-width hash of its canonical
	// string, so a wrapper that forwards only Name() (cmd/fedtrip-bench's
	// tracing one) writes a header of the same size as the method it wraps.
	hyper := fnv.New64a()
	hyper.Write([]byte(canonical(sp.Algo)))
	fmt.Fprintf(&b, "runtime=%s algo=%s hyper=%016x policy=%s", sp.Runtime, sp.Algo.Name(), hyper.Sum64(), sp.Policy)
	fmt.Fprintf(&b, " rounds=%d n=%d k=%d batch=%d epochs=%d", sp.Rounds, len(sp.Parts), sp.ClientsPerRound, sp.BatchSize, sp.LocalEpochs)
	fmt.Fprintf(&b, " lr=%g mom=%g clip=%g seed=%d evalevery=%d", sp.LR, sp.Momentum, sp.ClipNorm, sp.Seed, sp.EvalEvery)
	fmt.Fprintf(&b, " conc=%d buf=%d", sp.Concurrency, sp.BufferSize)
	fmt.Fprintf(&b, " latency=%s devices=%s floprate=%g adaptive=%t churn=%s network=%s faults=%s",
		sp.Latency, sp.Devices, sp.FlopRate, sp.AdaptiveLocalSteps, sp.Churn, sp.Network, sp.Faults)
	fmt.Fprintf(&b, " target=%g transport=%s", sp.TargetAccuracy, specName(sp.Transport))
	// The partition is re-derived by the caller; an FNV-1a hash over the
	// per-client sizes catches the common mistake (different -alpha or
	// client count) without embedding N index slices in every header.
	h := uint64(14695981039346656037)
	for _, p := range sp.Parts {
		h = (h ^ uint64(len(p))) * 1099511628211
	}
	fmt.Fprintf(&b, " params=%d train=%d test=%d parts=%016x", numParams, sp.Train.Len(), sp.Test.Len(), h)
	return b.String()
}

// specName canonically names the transport for the fingerprint: its spec
// string when it has one (every comm.ParseTransport result does), nil as
// "none", a hand-written transport as "custom". A resumed run must
// configure a transport with the same name — wire sizes and decode
// behaviour are part of the trajectory once communication is measured or
// priced.
func specName(v any) string {
	switch v := v.(type) {
	case nil:
		return "none"
	case fmt.Stringer:
		return v.String()
	}
	return "custom"
}

// Snapshot serializes the run's complete live state at the current round
// boundary. The run stays usable afterwards: Snapshot quiesces in-flight
// training (a pure reordering of work that was about to happen anyway)
// but drops nothing, so snapshot-and-continue and snapshot-and-exit both
// work. Returns an error for methods whose aggregation state lives
// outside the runtime (Aggregator/PreRounder implementors) and for a
// transport that keeps state of its own (StatefulTransport).
func (rs *RunState) Snapshot(w io.Writer) error {
	algo := rs.s.spec.Algo
	if tr, ok := rs.s.spec.Transport.(StatefulTransport); ok {
		return fmt.Errorf("core: cannot snapshot a run over transport %s (%T): it keeps run-long state of its own, which the runtime does not serialize", specName(tr), tr)
	}
	if _, ok := algo.(Aggregator); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps server-side aggregation state the runtime cannot serialize", algo.Name())
	}
	if _, ok := algo.(PreRounder); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps pre-round server state the runtime cannot serialize", algo.Name())
	}
	rs.run.quiesce()
	rs.s.rec.join()
	c := tensor.NewEncoder(w)
	rs.snap(c)
	return c.Finish()
}

// canonical renders a method for the snapshot fingerprint: its String()
// when it has one — the built-ins do, hyperparameters included — and its
// Name() otherwise.
func canonical(algo Algorithm) string {
	if s, ok := algo.(fmt.Stringer); ok {
		return s.String()
	}
	return algo.Name()
}

// ResumeSpec describes how to reconstruct a snapshotted run. Spec must
// rebuild the same run the snapshot was taken from: same method, policy,
// hyperparameters, seed, datasets, partition, and transport spec —
// Resume verifies this against the snapshot's fingerprint and reports
// exactly what differs. Function-valued fields (Logf, OnRound,
// OnUpdates) may differ freely; they are not part of the trajectory
// fingerprint. The Transport must be a fresh instance of the same spec
// (same fingerprint name); it keeps nothing across uploads, and each
// client's error-feedback residual is restored from the client walk.
type ResumeSpec struct {
	Spec RunSpec
}

// Resume reconstructs a run from a Snapshot stream and returns it
// positioned at the snapshotted round boundary, ready to Step (or Run)
// onward. The continuation is bit-for-bit identical to the original run
// having never stopped: same model trajectory, same metric series, same
// RNG draws, same communication accounting. The stream is untrusted: a
// truncated, corrupt or foreign one is refused with an error naming the
// defect, and reading it allocates nothing sized by a length it claims —
// the run is built from the spec first and the stream decoded into it.
func Resume(r io.Reader, rspec ResumeSpec) (*RunState, error) {
	spec := rspec.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rs, err := newRunState(spec)
	if err != nil {
		return nil, err
	}
	c := tensor.NewDecoder(r, "core", "run snapshot")
	rs.snap(c)
	if err := c.Finish(); err != nil {
		rs.Close()
		return nil, err
	}
	return rs, nil
}

// The FTRS stream, one walk per section (README "Snapshot format and
// guarantees" tabulates them). Each walk names its section's fields once,
// in stream order, and runs in both directions: on an encoder it writes
// the run, on a decoder it fills the freshly built run in place, so
// nothing is allocated from a length the stream claims. What only one
// direction needs — rebuilding an index the stream does not carry,
// refusing a value that would take the loop down — sits under
// c.Reading() beside the field it guards.

// snap is the whole stream: header, fingerprint, then the sections.
func (rs *RunState) snap(c *tensor.Codec) {
	c.Magic(snapMagic)
	c.Version(snapVersion)
	sp := &rs.s.spec
	ours := sp.fingerprint(len(rs.s.global))
	theirs := ours
	if c.Str("fingerprint", &theirs); c.Err() == nil && theirs != ours {
		c.Abort(fmt.Errorf("core: snapshot was taken from a different run:\n  snapshot: %s\n  spec:     %s\n  (hyper hashes the method's settings; this spec's are %s)", theirs, ours, canonical(sp.Algo)))
	}
	rs.snapCommon(c)
	rs.run.snapBody(c)
}

// sized gives a decoder somewhere to land a vector whose length n the
// run dictates: v itself when its storage is large enough. An encoder
// keeps v as it is — should a vector ever have the wrong length, the
// stream says so and Resume refuses it.
func sized[T any](c *tensor.Codec, v []T, n int) []T {
	if !c.Reading() {
		return v
	}
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// snapRng is one stream position: counter, buffered normal, flag (17
// bytes).
func snapRng(c *tensor.Codec, r *prng.Rand) {
	st := r.State()
	snapRngState(c, &st)
	r.SetState(st)
}

func snapRngState(c *tensor.Codec, st *prng.State) {
	c.U64(&st.S)
	c.F64(&st.Spare)
	c.Bool(&st.HasSpare)
}

// snapCommon is the state every runtime shares: the global model, the
// selection stream, the round images and the client population, the
// fault assignment, the recorder (metric series plus the list of
// evaluated rounds), and the clock and scheduler registry.
func (rs *RunState) snapCommon(c *tensor.Codec) {
	s := rs.s
	np := len(s.global)
	c.FloatsExact("global model", s.global)
	snapRng(c, s.rng)

	s.rows.snapImages(c)
	c.LenExact("client count", len(s.clients))
	// A client the run has not built is walked through tmpl, a client
	// that has never trained, so it is written as the built one would be;
	// on reading, a record that is not tmpl's builds the client (adopt).
	var tmpl clientCell
	for id, cl := range s.clients {
		if c.Err() != nil {
			return
		}
		if cl == nil {
			cl = s.build(&tmpl, id)
			tmpl.counter.Reset()
		}
		// The method's persistent rows: a recipe chain, or the rows
		// themselves (Client.State), empty until it first asked. Then the
		// transport's error-feedback residual, empty until the client's
		// first accepted upload under error feedback, and empty while a
		// chain rebuilds it.
		lazy, last := cl.recipe != 0, 0
		if c.Bool(&lazy); lazy && c.Reading() && !s.rows.on {
			// A replay needs what the client received, which only a run
			// that records participations can derive again.
			c.Fail("client %d holds a recipe, and this run records no participation", cl.ID)
		}
		if lazy {
			last = s.rows.snapChain(c, cl)
		} else {
			c.Rows("client state", &cl.state, np)
		}
		if c.Rows("client residual", &cl.resid, np); len(cl.resid) > np {
			c.Fail("client %d residual holds %d rows, at most 1", cl.ID, len(cl.resid)/np)
		}
		if lazy && len(cl.resid) > 0 && s.rows.coder != nil {
			c.Fail("client %d holds a residual row that its recipe rebuilds", cl.ID)
		}
		// A chain's newest link is the client's last participation, and a
		// residual is a participation's.
		c.Num("client last round", &cl.LastRound)
		if lazy && last != cl.LastRound {
			c.Fail("client %d recipe chain ends at round %d, its last round is %d", cl.ID, last, cl.LastRound)
		}
		if len(cl.resid) > 0 && cl.LastRound < 1 {
			c.Fail("client %d holds a residual row from round %d", cl.ID, cl.LastRound)
		}
		// The stream, when it has moved from its seed, which a decoder's
		// client holds already.
		drawn := cl.drawn()
		if c.Bool(&drawn); drawn {
			snapRng(c, &cl.rng)
		}
		total := cl.Counter.Total()
		if c.I64(&total); c.Reading() {
			cl.Counter.Reset()
			cl.Counter.Add(total)
		}
		if cl == &tmpl.Client && c.Reading() && !tmpl.idle() {
			s.adopt(&tmpl)
		}
	}
	if c.Reading() {
		for i, sn := range rs.run.snaps {
			if sn.refs == 0 {
				c.Fail("round image %d is pinned by no recipe", i)
			}
		}
	}

	// Adversary section: the fault assignment is a pure function of
	// (population, model, seed), re-derived on resume and cross-checked —
	// a mismatch means the snapshot came from another adversary stream.
	// A fault keeps no live state: a noise client draws from its own
	// stream, walked with the client.
	if c.Present("adversary section", s.faults != nil) {
		c.LenExact("fault assignment", len(s.faults))
		for i, f := range s.faults {
			if c.U8((*uint8)(&f)); c.Err() == nil && f != s.faults[i] {
				c.Fail("client %d fault class %d, the spec derives %d", i, f, s.faults[i])
			}
		}
	}

	rec, res := s.rec, s.rec.res
	// Rounds is adopted only once it is known to be sane: Close walks it
	// even on a run whose Resume failed.
	rounds := res.Rounds
	if c.Num("rounds", &rounds); rounds < 0 || rounds > s.spec.Rounds {
		c.Fail("%d recorded rounds, the spec runs %d", rounds, s.spec.Rounds)
		return
	}
	res.Rounds = rounds
	// Every per-round series holds exactly Rounds entries.
	res.TrainLoss = sized(c, res.TrainLoss, res.Rounds)
	res.CommBytesByRound = sized(c, res.CommBytesByRound, res.Rounds)
	res.GFLOPsByRound = sized(c, res.GFLOPsByRound, res.Rounds)
	res.SimTimeByRound = sized(c, res.SimTimeByRound, res.Rounds)
	res.MeanStalenessByRound = sized(c, res.MeanStalenessByRound, res.Rounds)
	c.FloatsExact("train-loss series", res.TrainLoss)
	c.I64sExact("comm-bytes series", res.CommBytesByRound)
	c.FloatsExact("gflops series", res.GFLOPsByRound)
	c.FloatsExact("sim-time series", res.SimTimeByRound)
	c.FloatsExact("staleness series", res.MeanStalenessByRound)
	c.Num("dropped updates", &res.DroppedUpdates)
	if c.Num("rejected updates", &res.RejectedUpdates); c.Reading() {
		s.rejectedUpdates = res.RejectedUpdates
		s.rejectLogged = res.RejectedUpdates > 0
	}
	c.I64(&rec.wirePending)
	c.F64(&rec.lastAcc)
	// Snapshot joined the outstanding evaluation, so the list holds every
	// submitted round: a count, then (round, accuracy) pairs in round
	// order. finalize finds the rounds-to-target in it.
	snapList(c, "accuracy list", &rec.evals, func(e *evalAcc) {
		c.Num("accuracy round", &e.round)
		c.F64(&e.acc)
	})
	if c.Reading() {
		newest := 0
		for _, e := range rec.evals {
			if e.round <= newest || e.round > res.Rounds {
				c.Fail("accuracy for round %d after round %d of %d", e.round, newest, res.Rounds)
			}
			newest = e.round
		}
	}

	c.I64(&s.flopsTotal)
	// The loops compare every event against the clock; against a NaN no
	// event is ever late, and draining the due ones never ends.
	if c.F64(&s.now); math.IsNaN(s.now) || math.IsInf(s.now, 0) {
		c.Fail("clock reads %v", s.now)
	}
	snapRng(c, s.latRng)
	s.pop.snap(c)
}

// snapList is a list whose length only the stream knows: a count, then
// each element. Decoding appends an element, then fills it.
func snapList[T any](c *tensor.Codec, what string, list *[]T, elem func(*T)) {
	n := c.Len(what, len(*list))
	if c.Reading() {
		*list = (*list)[:0]
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			var zero T
			*list = append(*list, zero)
		}
		elem(&(*list)[i])
	}
}

// snapImages is the round-image section: each model version a recipe
// pins, once however many pin it — its vector, from which a replay
// derives what the client received, at float64 width: the global, or
// the float32 image a float32 downlink delivers, widened. A recipe names
// its image by its place here (ord). A decoder appends each image to the
// runner's table, which a fresh run holds empty, held as the run holds a
// version (Server.hold): a float64 vector from its pool, or blocks of
// its store, shared as the run that wrote the stream shared them, so an
// image written as the full-precision global is held as the one written
// narrowed, and the client walk's recipes pin them.
func (st *rowStore) snapImages(c *tensor.Codec) {
	r := st.run
	np, n := len(r.s.global), 0
	if !c.Reading() {
		for _, sn := range r.snaps {
			sn.ord = -1
		}
		for i := range st.recipes {
			if img := st.recipes[i].img; img != nil {
				img.ord = 0
			}
		}
		for _, sn := range r.snaps {
			if sn.ord >= 0 {
				sn.ord = int32(n)
				n++
			}
		}
	}
	n = c.Len("round images", n)
	for i, k := 0, 0; i < n && c.Err() == nil; i++ {
		if c.Reading() {
			sn := &globalSnap{vec: paramsPool.get(np)}
			r.snaps = append(r.snaps, sn)
			c.FloatsExact("round image", sn.vec)
			if r.s.hold(sn.vec, &sn.img) {
				paramsPool.put(sn.vec)
				sn.vec = nil
			}
			continue
		}
		for r.snaps[k].ord < 0 {
			k++
		}
		sn := r.snaps[k]
		k++
		c.FloatsExact("round image", sn.source(r.s.widenBuf()))
	}
}

// snapChain is a client's rows held as a recipe chain: its link count,
// then each link, oldest first, as its image's place in the section, the
// stream position it trained from, its step budget, how many rows the
// method wrote and its round, and returns the newest link's round.
// Rounds start at 1 and never fall (an async client may return within
// one aggregation), and a chain is its links in stream order, so it
// cannot loop. A decoded link pins its image; a row count
// past what a Num can count in floats is refused, and a replay allocates
// only the rows the method really writes.
func (st *rowStore) snapChain(c *tensor.Codec, cl *Client) int {
	n := 0
	if !c.Reading() {
		st.chain = st.links(cl.recipe, st.chain)
		n = len(st.chain)
	}
	if c.Num("recipe links", &n); n < 1 {
		c.Fail("client %d holds a chain of %d recipes", cl.ID, n)
	}
	images, last := st.run.snaps, 0
	for i := 0; i < n && c.Err() == nil; i++ {
		var rec rowRecipe
		img := 0
		if !c.Reading() {
			rec = st.chain[i]
			img = int(rec.img.ord)
		}
		if c.Num("recipe image", &img); img < 0 || img >= len(images) {
			c.Fail("client %d recipe names round image %d of %d", cl.ID, img, len(images))
		}
		snapRngState(c, &rec.rng)
		steps, rows, round := int(rec.steps), int(rec.rows), int(rec.round)
		if c.Num("recipe steps", &steps); steps < 0 {
			c.Fail("client %d recipe step budget %d", cl.ID, steps)
		}
		if c.Num("recipe rows", &rows); rows < 1 || rows > math.MaxInt32/cl.NumParams() {
			c.Fail("client %d recipe of %d rows of %d floats", cl.ID, rows, cl.NumParams())
		}
		switch c.Num("recipe round", &round); {
		case round < 1:
			c.Fail("client %d recipe of round %d", cl.ID, round)
		case round < last:
			c.Fail("client %d recipe of round %d after one of round %d", cl.ID, round, last)
		}
		last = round
		if c.Reading() && c.Err() == nil {
			rec.img, rec.steps, rec.rows, rec.round, rec.prev = images[img], int32(steps), int32(rows), int32(round), cl.recipe
			st.keep(cl, rec)
		}
	}
	return last
}

// snap is the scheduler-facing fleet state. The idle set's ids array is
// order-sensitive — a uniform pick indexes into it — so it serializes
// verbatim, not as a set; its inverse is rebuilt.
func (p *population) snap(c *tensor.Codec) {
	n := len(p.dispatches)
	c.I32sExact("dispatch counts", p.dispatches)
	if c.I32s("idle set", &p.idle.ids, n); !c.Reading() || c.Err() != nil {
		return
	}
	for i := range p.idle.pos {
		p.idle.pos[i] = -1
	}
	for i, id := range p.idle.ids {
		if id < 0 || int(id) >= n || p.idle.pos[id] >= 0 {
			c.Fail("idle set entry %d = %d is not a distinct client of %d", i, id, n)
			return
		}
		p.idle.pos[id] = int32(i)
	}
}

// snap is one quiesced in-flight (or buffered) job: its scheduling key,
// dispatch parameters, and the finished update, always written dense: an
// upload held compact — narrowed to float32, or as a patch of indices or
// a bitmap against its version — is widened for the stream. The
// global-model snapshot the client trained from is not part of it — the
// training already consumed it, and the compact form is only how the
// server holds the upload. A decoded job is therefore trained, holds no
// done token (the arrival path must not, and will not, join it again) and
// takes its upload buffer from the pool the merge returns it to: dense,
// or, over a transport, narrowed when every entry is exact in float32, as
// an f32 uplink's upload is held in the run that wrote the stream, or,
// without one, as a bitmap patch against the round image its recorded
// participation pins.
func (j *trainJob) snap(c *tensor.Codec, s *Server) {
	var id int
	if !c.Reading() {
		id = j.c.ID
	}
	if c.Num("job client", &id); c.Reading() {
		// Before anything can fail: closing a refused run joins what is in
		// flight, and this job has no done token to wait for.
		j.trained = true
		if c.Err() == nil && (id < 0 || id >= len(s.clients)) {
			c.Fail("job client %d outside population of %d", id, len(s.clients))
		}
		if c.Err() != nil {
			return
		}
		j.c = s.client(id)
		j.update.Params, j.update.pooled = paramsPool.get(len(s.global)), true
	}
	c.Num("job round", &j.round)
	c.F64(&j.finish)
	c.Num("job sequence", &j.seq)
	c.Num("job steps", &j.steps)
	c.F64(&j.speed)
	c.F64(&j.remaining)
	c.Bool(&j.dropped)
	c.I64(&j.flops)
	c.I64(&j.downBytes)
	c.I64(&j.upBytes)
	c.Num("update client", &j.update.ClientID)
	params := j.update.Params
	if j.update.compacted() {
		params = j.update.Vector(paramsPool.get(j.update.size()))
		defer paramsPool.put(params)
	}
	c.FloatsExact("update params", params)
	switch {
	case !c.Reading() || c.Err() != nil:
	case s.wire != nil && f32Exact(params):
		// An f32 uplink's upload, held narrowed as the run that wrote
		// the stream held it.
		j.update.holdNarrow()
	case s.chunks != nil && !s.denseUploads && !s.corrupts(j.c):
		// Held as a bitmap patch by the rule trainClient holds it by:
		// when the participation that trained it is recorded, its link
		// pins the version, which the job then holds too.
		img := s.rows.image(j.c, j.round)
		if img == nil {
			break
		}
		u := &j.update
		if u.bitmap = s.chunks.holdBits(params, img.vec); u.bitmap != nil {
			paramsPool.put(u.Params)
			u.Params, u.pooled, u.base = nil, false, img.vec
			img.refs++
			j.gsnap, j.global = img, img.vec
		}
	}
	c.Num("update samples", &j.update.NumSamples)
	c.Num("update steps", &j.update.Steps)
	c.F64(&j.update.TrainLoss)
}

// snap is the aggregate availability process: the segment permutation
// (order-sensitive — the which-client pick indexes into it; its inverse
// is rebuilt), the three live-segment boundaries, the two exponential
// clock times, the scheduled-event heap in array order, and the
// mass-suspension rejoin groups.
func (ch *churn) snap(c *tensor.Codec) {
	n := ch.n
	if c.I32sExact("churn order", ch.order); c.Reading() && c.Err() == nil {
		for i := range ch.pos {
			ch.pos[i] = -1
		}
		for p, id := range ch.order {
			if id < 0 || int(id) >= n || ch.pos[id] >= 0 {
				c.Fail("churn order is not a permutation (entry %d = %d)", p, id)
				return
			}
			ch.pos[id] = int32(p)
		}
	}
	c.Num("churn online count", &ch.nUp)
	c.Num("churn offline count", &ch.nDown)
	c.Num("churn suspended count", &ch.nSusp)
	if ch.nUp < 0 || ch.nDown < 0 || ch.nSusp < 0 || ch.nUp+ch.nDown+ch.nSusp > n {
		c.Fail("churn segments %d/%d/%d exceed population of %d", ch.nUp, ch.nDown, ch.nSusp, n)
	}
	c.F64(&ch.nextDrop)
	c.F64(&ch.nextRejoin)
	// An armed clock draws its victim from the segment it empties.
	if (ch.nUp == 0 && !math.IsInf(ch.nextDrop, 1)) || (ch.nDown == 0 && !math.IsInf(ch.nextRejoin, 1)) {
		c.Fail("churn clock armed over an empty segment (%d online, %d offline)", ch.nUp, ch.nDown)
	}
	c.I64(&ch.seq)
	snapRng(c, ch.rng)

	snapList(c, "churn event heap", &ch.h.es, func(e *churnEvent) {
		c.F64(&e.at)
		c.I64(&e.seq)
		id := int(e.id)
		c.Num("churn event id", &id)
		e.id = int32(id)
		c.U8((*uint8)(&e.kind))
	})
	for i, e := range ch.h.es {
		if math.IsNaN(e.at) || i > 0 && churnLess(e, ch.h.es[(i-1)/2]) {
			c.Fail("churn event %d at %v is out of heap order", i, e.at)
			return
		}
	}
	snapList(c, "churn rejoin groups", &ch.groups, func(g *[]int32) {
		// Each scheduled mass drop leaves at most one group behind.
		if c.I32s("churn rejoin group", g, n); len(ch.groups) > len(ch.model.Drops) {
			c.Fail("%d churn rejoin groups for %d mass drops", len(ch.groups), len(ch.model.Drops))
		}
		for _, id := range *g {
			if id < 0 || int(id) >= n {
				c.Fail("churn group member %d outside population of %d", id, n)
			}
		}
	})
	// An event's id indexes the table its kind names: the spec's mass
	// drops, or the rejoin groups.
	for _, e := range ch.h.es {
		limit := len(ch.model.Drops)
		if e.kind == churnGroupRejoin {
			limit = len(ch.groups)
		}
		if e.kind > churnGroupRejoin || e.id < 0 || int(e.id) >= limit {
			c.Fail("churn event kind %d references entry %d of %d", e.kind, e.id, limit)
		}
	}
}

// snapBody is the event loop's own state. Behind the lock-step gate a
// round boundary has nothing in flight or buffered, so the body is the
// churn process alone, present exactly when the spec (and with it the
// fingerprint) has one.
func (r *bufferedRunner) snapBody(c *tensor.Codec) {
	if r.gated {
		if r.s.churn != nil {
			r.s.churn.snap(c)
		}
		return
	}
	// A decoded job comes from the run's free list.
	job := func(j **trainJob) {
		if c.Reading() {
			*j = r.s.getJob()
		}
		(*j).snap(c, r.s)
	}
	c.Num("dispatch sequence", &r.seq)
	// The event heap sorted (in the batch scratch, sized to the most jobs
	// in flight), a layout that depends on the jobs' keys alone, not on
	// the pushes, pops and re-pricings that built the live heap. A sorted
	// array is a heap, so it is restored verbatim (heapIdx = slot); its
	// key is strict, so the resumed run pops what the live heap would.
	inflight := &r.inflight.js
	if !c.Reading() {
		r.batch = append(r.batch[:0], r.inflight.js...) //fedtripvet:allow scratch sized to the most jobs in flight at construction
		slices.SortFunc(r.batch, func(a, b *trainJob) int {
			if jobLess(a, b) {
				return -1
			}
			return 1
		})
		inflight = &r.batch
	}
	snapList(c, "in-flight jobs", inflight, job)
	if c.Reading() && c.Err() == nil {
		for i, j := range r.inflight.js {
			if r.inflight.slot[j.c.ID] != 0 || r.s.pop.idle.pos[j.c.ID] >= 0 {
				c.Fail("in-flight job %d: client %d is already in flight or idle", i, j.c.ID)
				return
			}
			if math.IsNaN(j.finish) || i > 0 && jobLess(j, r.inflight.js[(i-1)/2]) {
				c.Fail("in-flight job %d arriving at %v is out of heap order", i, j.finish)
				return
			}
			j.heapIdx = i
			r.inflight.slot[j.c.ID] = int32(i) + 1
		}
	}
	snapList(c, "buffered jobs", &r.buffer, job)
	if c.Present("churn section", r.s.churn != nil) {
		r.s.churn.snap(c)
	}
}
