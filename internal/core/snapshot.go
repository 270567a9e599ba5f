// Deterministic run snapshots: serialize a RunState at a round boundary
// and reconstruct it bit-for-bit in a fresh process.
//
// The format is a versioned, magic-headered binary stream:
//
//	"FTRS" | version u8 | fingerprint string | common section | runner section
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
//     17 bytes (internal/prng). Unmaterialized client streams re-derive
//     from the seed registry.
//   - Snapshot quiesces: every in-flight job's local training is joined
//     first. Training physically completes before its virtual arrival in
//     any run, so joining early changes nothing — and afterwards the
//     per-client state and the job's finished update are plain data.
//   - Order-sensitive scheduler state serializes verbatim: the idle set's
//     ids array (a uniform pick indexes into it, so its order is part of
//     the trajectory), the event heap's array layout, the churn heap.
//   - Optimizer state needs no section: every local round begins with
//     opt.Reset() (pinned by the optim package's tests), so there is no
//     cross-round optimizer state to save.
//
// Not snapshottable: methods with server-side aggregation state outside
// RunState (Aggregator/PreRounder implementors — SlowMo's momentum,
// SCAFFOLD's c, ...). Snapshot refuses them with a precise error rather
// than silently resuming a half-restored method.
package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/prng"
)

const (
	snapMagic = "FTRS"
	// snapVersion 2 added per-job wire-byte fields, the pending-wire
	// recorder counter, and the transport-state section (error-feedback
	// residuals). Version 3 added the adversary section (per-client fault
	// assignment, noise-stream RNG positions) and the rejected-updates
	// counter. Version 4 switched the churn section to the compact
	// aggregate process (segment permutation + two clock times instead of
	// per-client phase arrays and an O(N) event heap), added the parked-
	// job remainder to job records, and made the adversary RNG array
	// optional (only the noise mode materializes it). Version 5 moved the
	// clock, latency stream, FLOP total and scheduler registry from the
	// per-runner sections into the common one, which every runtime now
	// carries (sync runs included). Version 6 changed no byte of the
	// layout: the fingerprint began to cover policy arguments, the
	// server-lr schedule, the staleness discount and the method's
	// hyperparameters, so version 5 files were written under a
	// fingerprint that could not tell such runs apart. A snapshot does not
	// survive a format bump: Resume refuses any other version, naming both.
	snapVersion = 6
	// snapMaxLen bounds every deserialized collection length: corrupt or
	// adversarial length prefixes must not drive allocation.
	snapMaxLen = 1 << 30
)

// snapWriter is a little-endian binary writer with sticky-error
// accumulation: call sites stay linear and flush reports the first
// failure.
type snapWriter struct {
	w   *bufio.Writer
	err error
	// buf is the encoding scratch: one word for u64, a chunk of them for
	// floats/i64s. It lives here because a local array handed to an
	// io.Writer moves to the heap — once per word written.
	buf [snapChunkWords * 8]byte
}

// snapChunkWords is how many 8-byte words floats/i64s move per call into
// the buffered stream.
const snapChunkWords = 512

func newSnapWriter(w io.Writer) *snapWriter { return &snapWriter{w: bufio.NewWriter(w)} }

func (s *snapWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

func (s *snapWriter) raw(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *snapWriter) u8(v uint8) {
	s.buf[0] = v
	s.raw(s.buf[:1])
}

func (s *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:8], v)
	s.raw(s.buf[:8])
}

// words writes a length-prefixed array of n words a chunk at a time; put
// encodes words [lo,hi) into b.
func (s *snapWriter) words(n int, put func(b []byte, lo, hi int)) {
	s.num(n)
	for lo := 0; lo < n; lo += snapChunkWords {
		hi := min(lo+snapChunkWords, n)
		b := s.buf[:8*(hi-lo)]
		put(b, lo, hi)
		s.raw(b)
	}
}

func (s *snapWriter) i64(v int64)   { s.u64(uint64(v)) }
func (s *snapWriter) num(v int)     { s.i64(int64(v)) }
func (s *snapWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *snapWriter) boolv(v bool) {
	if v {
		s.u8(1)
	} else {
		s.u8(0)
	}
}

func (s *snapWriter) str(v string) {
	s.num(len(v))
	s.raw([]byte(v))
}

func (s *snapWriter) floats(v []float64) {
	s.words(len(v), func(b []byte, lo, hi int) {
		for i, x := range v[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	})
}

func (s *snapWriter) i64s(v []int64) {
	s.words(len(v), func(b []byte, lo, hi int) {
		for i, x := range v[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
	})
}

func (s *snapWriter) i32s(v []int32) {
	s.num(len(v))
	for _, x := range v {
		s.i64(int64(x))
	}
}

func (s *snapWriter) bools(v []bool) {
	s.num(len(v))
	for _, x := range v {
		s.boolv(x)
	}
}

func (s *snapWriter) rngState(st prng.State) {
	s.u64(st.S)
	s.f64(st.Spare)
	s.boolv(st.HasSpare)
}

// snapReader mirrors snapWriter: little-endian reads with a sticky
// error. Truncation surfaces as a precise "truncated snapshot" error,
// not a zero value silently flowing into the run.
type snapReader struct {
	r   *bufio.Reader
	err error
	buf [snapChunkWords * 8]byte // decoding scratch, as snapWriter.buf
}

func newSnapReader(r io.Reader) *snapReader { return &snapReader{r: bufio.NewReader(r)} }

// fail records the first error.
func (s *snapReader) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func (s *snapReader) raw(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.err = fmt.Errorf("core: truncated snapshot: %w", err)
	}
}

// u8 and u64 read 0 once the stream has failed, never stale scratch.
func (s *snapReader) u8() uint8 {
	s.raw(s.buf[:1])
	if s.err != nil {
		return 0
	}
	return s.buf[0]
}

func (s *snapReader) u64() uint64 {
	s.raw(s.buf[:8])
	if s.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s.buf[:8])
}

// words reads n words a chunk at a time; get decodes b into words
// [lo,hi). It stops at the first error.
func (s *snapReader) words(n int, get func(b []byte, lo, hi int)) {
	for lo := 0; lo < n; lo += snapChunkWords {
		hi := min(lo+snapChunkWords, n)
		b := s.buf[:8*(hi-lo)]
		s.raw(b)
		if s.err != nil {
			return
		}
		get(b, lo, hi)
	}
}

func (s *snapReader) i64() int64   { return int64(s.u64()) }
func (s *snapReader) f64() float64 { return math.Float64frombits(s.u64()) }

func (s *snapReader) boolv() bool {
	switch v := s.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		s.fail("core: corrupt snapshot: bool byte %d", v)
		return false
	}
}

// length reads a collection length and bounds it.
func (s *snapReader) length(what string, max int) int {
	n := s.i64()
	if s.err != nil {
		return 0
	}
	if n < 0 || n > int64(max) {
		s.fail("core: corrupt snapshot: %s length %d outside [0,%d]", what, n, max)
		return 0
	}
	return int(n)
}

func (s *snapReader) num(what string) int {
	n := s.i64()
	if n < math.MinInt32 || n > math.MaxInt32 {
		s.fail("core: corrupt snapshot: %s value %d out of range", what, n)
		return 0
	}
	return int(n)
}

func (s *snapReader) str(what string) string {
	n := s.length(what, snapMaxLen)
	if s.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	s.raw(b)
	return string(b)
}

func (s *snapReader) floats(what string) []float64 {
	n := s.length(what, snapMaxLen)
	if s.err != nil {
		return nil
	}
	v := make([]float64, n)
	s.words(n, func(b []byte, lo, hi int) {
		for i := range v[lo:hi] {
			v[lo+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
	return v
}

func (s *snapReader) i64s(what string) []int64 {
	n := s.length(what, snapMaxLen)
	if s.err != nil {
		return nil
	}
	v := make([]int64, n)
	s.words(n, func(b []byte, lo, hi int) {
		for i := range v[lo:hi] {
			v[lo+i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
	return v
}

func (s *snapReader) i32s(what string) []int32 {
	n := s.length(what, snapMaxLen)
	if s.err != nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		x := s.i64()
		if x < math.MinInt32 || x > math.MaxInt32 {
			s.fail("core: corrupt snapshot: %s[%d] value %d out of range", what, i, x)
			return nil
		}
		v[i] = int32(x)
	}
	return v
}

func (s *snapReader) bools(what string) []bool {
	n := s.length(what, snapMaxLen)
	if s.err != nil {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = s.boolv()
	}
	return v
}

func (s *snapReader) rngState() prng.State {
	var st prng.State
	st.S = s.u64()
	st.Spare = s.f64()
	st.HasSpare = s.boolv()
	return st
}

// fingerprint canonically renders everything that determines the run's
// trajectory. Resume compares it string-to-string, so a mismatch error
// names what the caller changed. The method and the resolved policy
// render through canonical: the built-ins print every argument (FedTrip's
// mu, a trimmed-mean fraction, the staleness discount the resolution
// chain settled on, a server-lr schedule). What has no text
// form cannot be told apart: hooks and Shards never affect a trajectory
// by construction, but a hand-written discount or schedule closure prints
// as "custom", and a custom policy or method as its bare Name() — keeping
// those identical across a resume is the caller's responsibility.
func (sp *RunSpec) fingerprint(numParams int) string {
	var b strings.Builder
	// The method's settings enter as a fixed-width hash of its canonical
	// string, so a wrapper that forwards only Name() (cmd/fedtrip-bench's
	// tracing one) writes a header of the same size as the method it wraps.
	hyper := fnv.New64a()
	hyper.Write([]byte(canonical(sp.Algo)))
	fmt.Fprintf(&b, "runtime=%s algo=%s hyper=%016x policy=%s", sp.Runtime, sp.Algo.Name(), hyper.Sum64(), canonical(sp.Policy))
	fmt.Fprintf(&b, " rounds=%d n=%d k=%d batch=%d epochs=%d", sp.Rounds, len(sp.Parts), sp.ClientsPerRound, sp.BatchSize, sp.LocalEpochs)
	fmt.Fprintf(&b, " lr=%g mom=%g clip=%g seed=%d evalevery=%d", sp.LR, sp.Momentum, sp.ClipNorm, sp.Seed, sp.EvalEvery)
	fmt.Fprintf(&b, " conc=%d buf=%d", sp.Concurrency, sp.BufferSize)
	fmt.Fprintf(&b, " latency=%s devices=%s floprate=%g adaptive=%t churn=%s network=%s faults=%s",
		specName(sp.Latency), specName(sp.Devices), sp.FlopRate, sp.AdaptiveLocalSteps, sp.Churn, specName(sp.Network), sp.Faults)
	fmt.Fprintf(&b, " target=%g stop=%t transport=%s", sp.TargetAccuracy, sp.StopAtTarget, specName(sp.Transport))
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

// specName canonically names an optional model or transport for the
// fingerprint: its spec string when it has one (every ParseX result
// does), nil as "none", anything else as "custom". A resumed run must
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
// outside the runtime (Aggregator/PreRounder implementors).
func (rs *RunState) Snapshot(w io.Writer) error {
	s := rs.a.s
	if _, ok := s.cfg.Algo.(Aggregator); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps server-side aggregation state the runtime cannot serialize", s.cfg.Algo.Name())
	}
	if _, ok := s.cfg.Algo.(PreRounder); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps pre-round server state the runtime cannot serialize", s.cfg.Algo.Name())
	}
	rs.run.quiesce()
	rs.a.rec.syncEvals()

	sw := newSnapWriter(w)
	sw.raw([]byte(snapMagic))
	sw.u8(snapVersion)
	sw.str(rs.spec.fingerprint(len(s.global)))
	rs.snapshotCommon(sw)
	if err := snapshotTransport(sw, s.cfg.Transport); err != nil {
		return err
	}
	rs.run.snapshotBody(sw)
	return sw.flush()
}

// snapshotTransport serializes a StatefulTransport's run-long state
// (error-feedback residuals) as a presence flag plus a length-prefixed
// blob. Snapshot runs quiesced, so no transfer is mutating the state.
func snapshotTransport(sw *snapWriter, t Transport) error {
	st, ok := t.(StatefulTransport)
	sw.boolv(ok)
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := st.SnapshotState(&buf); err != nil {
		return fmt.Errorf("core: snapshot transport state: %w", err)
	}
	sw.num(buf.Len())
	sw.raw(buf.Bytes())
	return nil
}

// restoreTransport is snapshotTransport's inverse, run against the fresh
// transport the resume spec configured.
func restoreTransport(sr *snapReader, t Transport) error {
	has := sr.boolv()
	if sr.err != nil {
		return sr.err
	}
	st, ok := t.(StatefulTransport)
	if has != ok {
		return fmt.Errorf("core: snapshot transport state present=%t, spec transport stateful=%t", has, ok)
	}
	if !has {
		return nil
	}
	n := sr.length("transport state", snapMaxLen)
	if sr.err != nil {
		return sr.err
	}
	blob := make([]byte, n)
	sr.raw(blob)
	if sr.err != nil {
		return sr.err
	}
	if err := st.RestoreState(bytes.NewReader(blob)); err != nil {
		return fmt.Errorf("core: restore transport state: %w", err)
	}
	return nil
}

// snapshotCommon serializes the state shared by every runtime: the
// global model, the selection stream, the client population, the
// recorder (metric series plus the published accuracies), and the clock
// and scheduler registry.
func (rs *RunState) snapshotCommon(sw *snapWriter) {
	a, s := rs.a, rs.a.s
	sw.floats(s.global)
	sw.rngState(s.rng.State())

	sw.num(len(s.clients))
	for _, c := range s.clients {
		sw.boolv(c.Hist != nil)
		if c.Hist != nil {
			sw.floats(c.Hist)
		}
		sw.num(c.LastRound)
		sw.boolv(c.rng != nil)
		if c.rng != nil {
			sw.rngState(c.rng.State())
		}
		sw.i64(c.Counter.Total())
		writeScalarMap(sw, c.scalars)
		writeVecMap(sw, c.state)
	}

	// Adversary section: the fault assignment (re-derived on resume and
	// cross-checked — it is a pure function of the spec and seed) and the
	// noise clients' private RNG positions, which are live state.
	sw.boolv(s.faults != nil)
	if s.faults != nil {
		sw.num(len(s.faults))
		for _, f := range s.faults {
			sw.u8(uint8(f))
		}
		// Only the noise mode materializes per-client adversary streams;
		// crash/zero/sign fleets carry no such state.
		sw.boolv(s.advRng != nil)
		for _, rng := range s.advRng {
			sw.boolv(rng != nil)
			if rng != nil {
				sw.rngState(rng.State())
			}
		}
	}

	rec := a.rec
	res := rec.res
	sw.num(res.Rounds)
	sw.floats(res.TrainLoss)
	sw.i64s(res.CommBytesByRound)
	sw.floats(res.GFLOPsByRound)
	sw.floats(res.SimTimeByRound)
	sw.floats(res.MeanStalenessByRound)
	sw.num(res.DroppedUpdates)
	sw.num(res.RejectedUpdates)
	sw.num(res.RoundsToTarget)
	sw.i64(rec.cumComm)
	sw.i64(rec.wirePending)
	sw.num(rec.prevEval)
	sw.num(rec.lastSubmitted)
	sw.f64(rec.lastAcc)
	accs := rec.ev.exportAccs()
	rounds := make([]int, 0, len(accs))
	for r := range accs {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	sw.num(len(rounds))
	for _, r := range rounds {
		sw.num(r)
		sw.f64(accs[r])
	}

	sw.i64(a.flopsTotal)
	sw.f64(a.now)
	sw.rngState(a.latRng.State())
	writePopulation(sw, a.pop)
}

// restoreCommon is snapshotCommon's inverse, with structural validation
// against the freshly built run.
func (rs *RunState) restoreCommon(sr *snapReader) {
	a, s := rs.a, rs.a.s
	global := sr.floats("global model")
	if sr.err == nil && len(global) != len(s.global) {
		sr.fail("core: corrupt snapshot: global model has %d parameters, the spec builds %d", len(global), len(s.global))
	}
	if sr.err != nil {
		return
	}
	copy(s.global, global)
	s.rng.SetState(sr.rngState())

	n := sr.num("client count")
	if sr.err == nil && n != len(s.clients) {
		sr.fail("core: corrupt snapshot: %d clients, the spec builds %d", n, len(s.clients))
	}
	for i := 0; i < n && sr.err == nil; i++ {
		c := s.clients[i]
		if sr.boolv() {
			hist := sr.floats("client historical model")
			if sr.err == nil && len(hist) != len(s.global) {
				sr.fail("core: corrupt snapshot: client %d historical model has %d parameters, want %d", i, len(hist), len(s.global))
			}
			c.Hist = hist
		} else {
			c.Hist = nil
		}
		c.LastRound = sr.num("client last round")
		if sr.boolv() {
			if c.rng == nil {
				c.rng = prng.New(0)
			}
			c.rng.SetState(sr.rngState())
		} else {
			c.rng = nil
		}
		total := sr.i64()
		c.Counter.Reset()
		c.Counter.Add(total)
		c.scalars = readScalarMap(sr)
		c.state = readVecMap(sr, len(s.global))
	}

	hasFaults := sr.boolv()
	if sr.err == nil && hasFaults != (s.faults != nil) {
		sr.fail("core: corrupt snapshot: adversary section present=%t, spec faults present=%t", hasFaults, s.faults != nil)
	}
	if sr.err == nil && hasFaults {
		nf := sr.num("fault assignment count")
		if sr.err == nil && nf != len(s.faults) {
			sr.fail("core: corrupt snapshot: %d fault assignments, the spec derives %d", nf, len(s.faults))
		}
		for i := 0; i < nf && sr.err == nil; i++ {
			f := faultClass(sr.u8())
			if sr.err != nil {
				break
			}
			if f > faultClassLimit {
				sr.fail("core: corrupt snapshot: fault class %d", f)
			} else if f != s.faults[i] {
				// The assignment is a pure function of (population, model,
				// seed); a mismatch means the snapshot came from a
				// different adversary stream.
				sr.fail("core: corrupt snapshot: client %d fault class %d, the spec derives %d", i, f, s.faults[i])
			}
		}
		hasAdvRng := sr.boolv()
		if sr.err == nil && hasAdvRng != (s.advRng != nil) {
			sr.fail("core: corrupt snapshot: adversary streams present=%t, spec derives=%t", hasAdvRng, s.advRng != nil)
		}
		for i := 0; hasAdvRng && i < nf && sr.err == nil; i++ {
			if sr.boolv() {
				if s.advRng[i] == nil {
					sr.fail("core: corrupt snapshot: client %d carries an adversary stream the spec does not derive", i)
					break
				}
				s.advRng[i].SetState(sr.rngState())
			} else if sr.err == nil && s.advRng[i] != nil {
				sr.fail("core: corrupt snapshot: client %d is missing its adversary stream position", i)
			}
		}
	}

	rec := a.rec
	res := rec.res
	res.Rounds = sr.num("rounds")
	res.TrainLoss = sr.floats("train-loss series")
	res.CommBytesByRound = sr.i64s("comm-bytes series")
	res.GFLOPsByRound = sr.floats("gflops series")
	res.SimTimeByRound = sr.floats("sim-time series")
	res.MeanStalenessByRound = sr.floats("staleness series")
	res.DroppedUpdates = sr.num("dropped updates")
	res.RejectedUpdates = sr.num("rejected updates")
	s.rejectedUpdates = res.RejectedUpdates
	s.rejectLogged = res.RejectedUpdates > 0
	res.RoundsToTarget = sr.num("rounds to target")
	rec.cumComm = sr.i64()
	rec.wirePending = sr.i64()
	rec.prevEval = sr.num("previous evaluation round")
	rec.lastSubmitted = sr.num("last submitted evaluation round")
	rec.lastAcc = sr.f64()
	nAccs := sr.length("accuracy map", snapMaxLen)
	accs := make(map[int]float64, nAccs)
	for i := 0; i < nAccs && sr.err == nil; i++ {
		r := sr.num("accuracy round")
		accs[r] = sr.f64()
	}
	if sr.err == nil {
		rec.ev.preload(accs)
	}
	if sr.err == nil && (len(res.TrainLoss) != res.Rounds || len(res.CommBytesByRound) != res.Rounds || len(res.GFLOPsByRound) != res.Rounds) {
		sr.fail("core: corrupt snapshot: metric series lengths (%d/%d/%d) disagree with %d recorded rounds",
			len(res.TrainLoss), len(res.CommBytesByRound), len(res.GFLOPsByRound), res.Rounds)
	}

	a.flopsTotal = sr.i64()
	a.now = sr.f64()
	a.latRng.SetState(sr.rngState())
	readPopulation(sr, a.pop)
}

func writeScalarMap(sw *snapWriter, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sw.num(len(keys))
	for _, k := range keys {
		sw.str(k)
		sw.f64(m[k])
	}
}

func readScalarMap(sr *snapReader) map[string]float64 {
	n := sr.length("scalar map", snapMaxLen)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && sr.err == nil; i++ {
		k := sr.str("scalar name")
		m[k] = sr.f64()
	}
	return m
}

func writeVecMap(sw *snapWriter, m map[string][]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sw.num(len(keys))
	for _, k := range keys {
		sw.str(k)
		sw.floats(m[k])
	}
}

func readVecMap(sr *snapReader, numParams int) map[string][]float64 {
	n := sr.length("state-vector map", snapMaxLen)
	if n == 0 {
		return nil
	}
	m := make(map[string][]float64, n)
	for i := 0; i < n && sr.err == nil; i++ {
		k := sr.str("state-vector name")
		v := sr.floats("state vector")
		if sr.err == nil && len(v) != numParams {
			sr.fail("core: corrupt snapshot: state vector %q has %d elements, want %d", k, len(v), numParams)
			return nil
		}
		m[k] = v
	}
	return m
}

// writeJob serializes one quiesced in-flight (or buffered) job: its
// scheduling key, dispatch parameters, and the finished update. The
// global-model snapshot the client trained from is NOT serialized — the
// training already consumed it.
func writeJob(sw *snapWriter, j *trainJob) {
	sw.num(j.c.ID)
	sw.num(j.round)
	sw.f64(j.finish)
	sw.num(j.seq)
	sw.num(j.steps)
	sw.f64(j.speed)
	sw.f64(j.remaining)
	sw.boolv(j.dropped)
	sw.i64(j.flops)
	sw.i64(j.downBytes)
	sw.i64(j.upBytes)
	sw.num(j.update.ClientID)
	sw.floats(j.update.Params)
	sw.num(j.update.NumSamples)
	sw.f64(j.update.TrainLoss)
}

// readJob reconstructs a quiesced job. The done channel carries no token
// and trained is true: the arrival path must not (and will not) join it
// again, and there is no global snapshot left to release.
func readJob(sr *snapReader, s *Server) *trainJob {
	id := sr.num("job client")
	if sr.err == nil && (id < 0 || id >= len(s.clients)) {
		sr.fail("core: corrupt snapshot: job client %d outside population of %d", id, len(s.clients))
	}
	if sr.err != nil {
		return nil
	}
	j := &trainJob{
		c:       s.clients[id],
		done:    make(chan struct{}, 1),
		trained: true,
		heapIdx: -1,
	}
	j.round = sr.num("job round")
	j.finish = sr.f64()
	j.seq = sr.num("job sequence")
	j.steps = sr.num("job steps")
	j.speed = sr.f64()
	j.remaining = sr.f64()
	j.dropped = sr.boolv()
	j.flops = sr.i64()
	j.downBytes = sr.i64()
	j.upBytes = sr.i64()
	j.update.ClientID = sr.num("update client")
	j.update.Params = sr.floats("update params")
	j.update.NumSamples = sr.num("update samples")
	j.update.TrainLoss = sr.f64()
	j.update.pooled = true
	if sr.err == nil && len(j.update.Params) != len(s.global) {
		sr.fail("core: corrupt snapshot: job update has %d parameters, want %d", len(j.update.Params), len(s.global))
		return nil
	}
	return j
}

// writePopulation serializes the scheduler-facing fleet state. The idle
// set's ids array is order-sensitive — a uniform pick indexes into it —
// so it serializes verbatim, not as a set.
func writePopulation(sw *snapWriter, p *population) {
	sw.i32s(p.dispatches)
	sw.i32s(p.idle.ids)
}

func readPopulation(sr *snapReader, p *population) {
	n := len(p.dispatches)
	dispatches := sr.i32s("dispatch counts")
	ids := sr.i32s("idle set")
	if sr.err != nil {
		return
	}
	if len(dispatches) != n || len(ids) > n {
		sr.fail("core: corrupt snapshot: fleet state sized %d/%d, population is %d", len(dispatches), len(ids), n)
		return
	}
	copy(p.dispatches, dispatches)
	p.idle.ids = p.idle.ids[:0]
	for i := range p.idle.pos {
		p.idle.pos[i] = -1
	}
	for i, id := range ids {
		if id < 0 || int(id) >= n {
			sr.fail("core: corrupt snapshot: idle client %d outside population of %d", id, n)
			return
		}
		p.idle.ids = append(p.idle.ids, id)
		p.idle.pos[id] = int32(i)
	}
}

// writeChurn serializes the aggregate availability process: the segment
// permutation (order-sensitive — the which-client pick indexes into it),
// the three live-segment boundaries, the two exponential clock times,
// the scheduled-event heap in array order, and the mass-suspension
// rejoin groups.
func writeChurn(sw *snapWriter, c *churn) {
	sw.i32s(c.order)
	sw.num(c.nUp)
	sw.num(c.nDown)
	sw.num(c.nSusp)
	sw.f64(c.nextDrop)
	sw.f64(c.nextRejoin)
	sw.i64(c.seq)
	sw.rngState(c.rng.State())
	sw.num(len(c.h.es))
	for _, e := range c.h.es {
		sw.f64(e.at)
		sw.i64(e.seq)
		sw.i64(int64(e.id))
		sw.u8(uint8(e.kind))
	}
	sw.num(len(c.groups))
	for _, g := range c.groups {
		sw.i32s(g)
	}
}

func readChurn(sr *snapReader, c *churn) {
	n := c.n
	order := sr.i32s("churn order")
	if sr.err == nil && len(order) != n {
		sr.fail("core: corrupt snapshot: churn order sized %d, population is %d", len(order), n)
	}
	if sr.err != nil {
		return
	}
	copy(c.order, order)
	for i := range c.pos {
		c.pos[i] = -1
	}
	for p, id := range c.order {
		if id < 0 || int(id) >= n || c.pos[id] >= 0 {
			sr.fail("core: corrupt snapshot: churn order is not a permutation (entry %d = %d)", p, id)
			return
		}
		c.pos[id] = int32(p)
	}
	c.nUp = sr.num("churn online count")
	c.nDown = sr.num("churn offline count")
	c.nSusp = sr.num("churn suspended count")
	if sr.err == nil && (c.nUp < 0 || c.nDown < 0 || c.nSusp < 0 || c.nUp+c.nDown+c.nSusp > n) {
		sr.fail("core: corrupt snapshot: churn segments %d/%d/%d exceed population of %d", c.nUp, c.nDown, c.nSusp, n)
		return
	}
	c.nextDrop = sr.f64()
	c.nextRejoin = sr.f64()
	c.seq = sr.i64()
	c.rng.SetState(sr.rngState())
	nEvents := sr.length("churn event heap", snapMaxLen)
	c.h.es = c.h.es[:0]
	for i := 0; i < nEvents && sr.err == nil; i++ {
		var e churnEvent
		e.at = sr.f64()
		e.seq = sr.i64()
		e.id = int32(sr.num("churn event id"))
		e.kind = churnEventKind(sr.u8())
		if sr.err == nil && e.kind > churnGroupRejoin {
			sr.fail("core: corrupt snapshot: churn event kind %d", e.kind)
			return
		}
		c.h.es = append(c.h.es, e)
	}
	nGroups := sr.length("churn rejoin groups", snapMaxLen)
	c.groups = c.groups[:0]
	for i := 0; i < nGroups && sr.err == nil; i++ {
		g := sr.i32s("churn rejoin group")
		for _, id := range g {
			if id < 0 || int(id) >= n {
				sr.fail("core: corrupt snapshot: churn group member %d outside population of %d", id, n)
				return
			}
		}
		c.groups = append(c.groups, g)
	}
	for _, e := range c.h.es {
		if e.kind == churnGroupRejoin && (e.id < 0 || int(e.id) >= len(c.groups)) {
			sr.fail("core: corrupt snapshot: churn group-rejoin event references group %d of %d", e.id, len(c.groups))
			return
		}
	}
}

// --- per-runner bodies ---

// The barrier loop joins every client inside step: at a round boundary
// it holds nothing beyond the common section.
func (r barrierRunner) snapshotBody(*snapWriter)      {}
func (r barrierRunner) restoreBody(*snapReader) error { return nil }

func (r *bufferedRunner) snapshotBody(sw *snapWriter) {
	a := r.a
	sw.num(r.seq)
	// The event heap in array order: restoring verbatim (heapIdx = slot)
	// preserves both the heap invariant and the exact layout, so a
	// resumed run's pops and sift paths replay identically.
	sw.num(len(r.inflight.js))
	for _, j := range r.inflight.js {
		writeJob(sw, j)
	}
	sw.num(len(r.buffer))
	for _, j := range r.buffer {
		writeJob(sw, j)
	}
	sw.boolv(a.churn != nil)
	if a.churn != nil {
		writeChurn(sw, a.churn)
	}
}

func (r *bufferedRunner) restoreBody(sr *snapReader) error {
	a, s := r.a, r.a.s
	r.seq = sr.num("dispatch sequence")
	nInflight := sr.length("in-flight jobs", snapMaxLen)
	r.inflight.js = r.inflight.js[:0]
	for i := 0; i < nInflight && sr.err == nil; i++ {
		j := readJob(sr, s)
		if j == nil {
			break
		}
		j.heapIdx = i
		r.inflight.js = append(r.inflight.js, j)
		r.inflight.slot[j.c.ID] = int32(i) + 1
	}
	nBuffer := sr.length("buffered jobs", snapMaxLen)
	r.buffer = r.buffer[:0]
	for i := 0; i < nBuffer && sr.err == nil; i++ {
		j := readJob(sr, s)
		if j == nil {
			break
		}
		r.buffer = append(r.buffer, j)
	}
	hasChurn := sr.boolv()
	if sr.err == nil && hasChurn != (a.churn != nil) {
		sr.fail("core: corrupt snapshot: churn section present=%t, spec churn present=%t", hasChurn, a.churn != nil)
	}
	if sr.err == nil && hasChurn {
		readChurn(sr, a.churn)
	}
	return sr.err
}

// ResumeSpec describes how to reconstruct a snapshotted run. Spec must
// rebuild the same run the snapshot was taken from: same method, policy,
// hyperparameters, seed, datasets, partition, and transport spec —
// Resume verifies this against the snapshot's fingerprint and reports
// exactly what differs. Function-valued fields (Logf, OnRound,
// OnUpdates) may differ freely; they are not part of the trajectory
// fingerprint. The Transport must be a fresh instance of the same spec
// (same fingerprint name); a StatefulTransport's run-long state
// (error-feedback residuals) is restored from the snapshot.
type ResumeSpec struct {
	Spec RunSpec
}

// Resume reconstructs a run from a Snapshot stream and returns it
// positioned at the snapshotted round boundary, ready to Step (or Run)
// onward. The continuation is bit-for-bit identical to the original run
// having never stopped: same model trajectory, same metric series, same
// RNG draws. Comm accounting resumes exactly (per-job wire bytes and the
// pending-wire counter are serialized); one caveat
// remains for legacy MeteredTransport-only transports, whose cumulative
// counters restart at zero in the new process.
func Resume(r io.Reader, rspec ResumeSpec) (*RunState, error) {
	spec := rspec.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rs, err := newRunState(spec)
	if err != nil {
		return nil, err
	}
	if err := rs.restore(r); err != nil {
		rs.Close()
		return nil, err
	}
	return rs, nil
}

// restore reads a snapshot stream into the freshly built run.
func (rs *RunState) restore(r io.Reader) error {
	sr := newSnapReader(r)
	var magic [4]byte
	sr.raw(magic[:])
	if sr.err != nil {
		return sr.err
	}
	if string(magic[:]) != snapMagic {
		return fmt.Errorf("core: not a run snapshot (magic %q, want %q)", magic[:], snapMagic)
	}
	if v := sr.u8(); sr.err == nil && v != snapVersion {
		return fmt.Errorf("core: run snapshot version %d, this build reads version %d", v, snapVersion)
	}
	theirs := sr.str("fingerprint")
	if sr.err != nil {
		return sr.err
	}
	ours := rs.spec.fingerprint(len(rs.a.s.global))
	if theirs != ours {
		return fmt.Errorf("core: snapshot was taken from a different run:\n  snapshot: %s\n  spec:     %s\n  (hyper hashes the method's settings; this spec's are %s)", theirs, ours, canonical(rs.spec.Algo))
	}
	rs.restoreCommon(sr)
	if sr.err != nil {
		return sr.err
	}
	if err := restoreTransport(sr, rs.a.s.cfg.Transport); err != nil {
		return err
	}
	return rs.run.restoreBody(sr)
}
