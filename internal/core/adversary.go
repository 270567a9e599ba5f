// Adversarial fleets: Byzantine fault injection and the server's
// defenses.
//
// A FaultModel assigns each client a fault class from the dedicated
// "adversary" seed stream — one draw per client in ID order, so enabling
// (or resizing) the adversary never perturbs selection, latency, or any
// other stream, and a zero-fraction model reproduces the honest
// trajectory bit-for-bit. Faults apply at upload time, inside
// Server.trainClient: a Byzantine client really trains (its FLOPs meter,
// its wire bytes price), and its corrupted upload then flows through
// transports, staleness, and churn exactly like an honest one.
//
// The defenses live in the merge path (server.go): non-finite uploads
// are zero-weighted out of every merge and counted in
// Result.RejectedUpdates (graceful degradation — the run survives and
// reports, instead of dying at the divergence backstop), a policy's Clip
// guard bounds each update's distance from the current global model, and
// the robust policy kinds (coordinate-wise median, trimmed mean, a
// multi-Krum selector; policy.go) replace the weighted average with order
// statistics that a bounded Byzantine fraction cannot move far.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/prng"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// faultClass is one client's assigned behaviour. The zero value is an
// honest client; the order is part of the FTRS snapshot format.
type faultClass uint8

const (
	faultNone faultClass = iota
	// faultSignFlip uploads the negated parameter vector.
	faultSignFlip
	// faultScale uploads the parameter vector magnified by Arg.
	faultScale
	// faultNoise perturbs every parameter with Arg * N(0,1) drawn from
	// the client's private adversary stream.
	faultNoise
	// faultNaN uploads non-finite parameters (rejected by the server's
	// finite screen and counted in Result.RejectedUpdates).
	faultNaN
	// faultLabelFlip trains on deterministically permuted labels — a
	// data-level fault: the upload itself is a genuine (bad) model.
	faultLabelFlip
	// faultCrash trains, pays FLOPs and wire time, but the upload is
	// garbage (non-finite) — a device that died mid-serialization.
	faultCrash
)

// FaultModel describes the adversarial composition of a fleet: a
// Byzantine fraction with one behaviour mode, plus an independent
// crash-faulty fraction. Parsed from the CLI grammar by ParseFaults and
// wired as RunSpec.Faults.
type FaultModel struct {
	// ByzFraction is the expected fraction of clients assigned Mode.
	ByzFraction float64
	// Mode is the Byzantine behaviour: signflip | scale | noise | nan |
	// labelflip.
	Mode string
	// Arg parameterizes the mode: the magnification K for scale, the
	// noise standard deviation SIGMA for noise; unused otherwise.
	Arg float64
	// CrashFraction is the expected fraction of clients that are
	// crash-faulty (independent of the Byzantine assignment; a client
	// gets at most one fault).
	CrashFraction float64
}

// Validate checks fractions and the mode grammar.
func (m *FaultModel) Validate() error {
	// Positive-form comparisons, so a NaN fails them.
	if !(m.ByzFraction >= 0 && m.ByzFraction <= 1) {
		return fmt.Errorf("core: byzantine fraction %g outside [0,1]", m.ByzFraction)
	}
	if !(m.CrashFraction >= 0 && m.CrashFraction <= 1) {
		return fmt.Errorf("core: crash fraction %g outside [0,1]", m.CrashFraction)
	}
	if !(m.ByzFraction+m.CrashFraction <= 1) {
		return fmt.Errorf("core: fault fractions %g+%g exceed 1", m.ByzFraction, m.CrashFraction)
	}
	if m.Mode == "" {
		if m.ByzFraction > 0 {
			return fmt.Errorf("core: byzantine fraction %g needs a mode", m.ByzFraction)
		}
		return nil
	}
	if _, err := faultModes.Parse(m.modeTerm().String()); err != nil {
		return err
	}
	if m.Arg != 0 && !(m.Arg > 0 && !math.IsInf(m.Arg, 0)) {
		return fmt.Errorf("core: %s fault argument %g must be positive and finite", m.Mode, m.Arg)
	}
	return nil
}

// faultModes is the vocabulary of FaultModel.Mode, in faultClass order
// from faultSignFlip.
var faultModes = spec.Family{Label: "fault mode", Forms: []spec.Form{
	{Name: "signflip"}, {Name: "scale", Min: 1, Max: 1}, {Name: "noise", Min: 1, Max: 1},
	{Name: "nan"}, {Name: "labelflip"},
}}

// modeTerm renders the mode with its argument (scale:K, noise:SIGMA).
func (m *FaultModel) modeTerm() spec.Term {
	t := spec.T(m.Mode)
	if m.Arg != 0 {
		t.Args = []float64{m.Arg}
	}
	return t
}

// byzClass maps the validated mode to its fault class.
func (m *FaultModel) byzClass() faultClass {
	for i, f := range faultModes.Forms {
		if f.Name == m.Mode {
			return faultSignFlip + faultClass(i)
		}
	}
	return faultNone
}

// String renders the model in ParseFaults's grammar, the canonical form
// the snapshot fingerprint embeds (a nil model is "none").
func (m *FaultModel) String() string {
	if m == nil {
		return "none"
	}
	var terms []string
	if m.Mode != "" {
		byz, mode := spec.T("byz", m.ByzFraction), m.modeTerm()
		byz.Sub = &mode
		terms = append(terms, byz.String())
	}
	if m.CrashFraction > 0 {
		terms = append(terms, spec.T("crash", m.CrashFraction).String())
	}
	if len(terms) == 0 {
		return "none"
	}
	return spec.Join(terms...)
}

var faultFamily = spec.Family{Label: "faults", Empty: "none", Forms: []spec.Form{
	{Name: "none", Alone: true},
	{Name: "byz", Min: 1, Max: 1, Sub: true, Pos: spec.Either},
	{Name: "crash", Min: 1, Max: 1, Pos: spec.Either},
}}

// ParseFaults parses a fault-model spec (grammar: internal/spec):
//
//	byz:FRAC,MODE        fraction FRAC of clients is Byzantine with MODE:
//	                     signflip | scale:K | noise:SIGMA | nan | labelflip
//	crash:FRAC           fraction FRAC crash-faulty (garbage uploads)
//
// Terms compose with "+" (e.g. "byz:0.2,signflip+crash:0.05"); "" and
// "none" mean no faults (nil model).
func ParseFaults(text string) (*FaultModel, error) {
	ts, err := faultFamily.Parse(text)
	if err != nil || ts[0].Name == "none" {
		return nil, err
	}
	m := &FaultModel{}
	for _, t := range ts {
		if t.Name == "crash" {
			m.CrashFraction = t.Args[0]
			continue
		}
		m.ByzFraction, m.Mode = t.Args[0], t.Sub.Name
		switch len(t.Sub.Args) {
		case 0:
		case 1:
			m.Arg = t.Sub.Args[0]
		default:
			return nil, faultFamily.Errorf(text, "mode %s takes at most one argument", m.Mode)
		}
	}
	if err := m.Validate(); err != nil || *m == (FaultModel{}) {
		return nil, err // "crash:0" is no faults at all, and prints as "none"
	}
	return m, nil
}

// clientFaultClass derives client id's fault class statelessly from the
// id-th instance of the adversary stream: one uniform draw, a pure
// function of (id, model, seed). Keying the stream to the client (the
// same discipline as FleetDist.speed and FleetDist.link) means the
// assignment needs no sequential pass and can be re-derived — never
// serialized as the source of truth — on resume.
func clientFaultClass(id int, m *FaultModel, byz faultClass, seed int64, scratch *prng.Rand) faultClass {
	scratch.Reseed(streamSeed(seed, streamAdversary, id))
	u := scratch.Float64()
	switch {
	case u < m.ByzFraction:
		return byz
	case u < m.ByzFraction+m.CrashFraction:
		return faultCrash
	}
	return faultNone
}

// sampleFaults materializes the per-ID rule for a whole fleet.
func sampleFaults(n int, m *FaultModel, seed int64) []faultClass {
	var scratch prng.Rand
	faults := make([]faultClass, n)
	byz := m.byzClass()
	for id := 0; id < n; id++ {
		faults[id] = clientFaultClass(id, m, byz, seed, &scratch)
	}
	return faults
}

// installFaults samples the fleet's fault assignment. The class array
// stays materialized — one byte per client — because applyFault indexes
// it from concurrent shard workers, where a shared scratch RNG would
// race; the noise mode adds one stream slot per client, filled at the
// client's first fault (applyFault). A label-flipping client's rotation
// is derived when the client is built (labelFlip), so nothing here
// touches a client. Called once at run construction; a nil model leaves
// the server entirely honest (and the adversary stream untouched).
func (s *Server) installFaults() {
	fm := s.spec.Faults
	if fm == nil {
		return
	}
	s.faults = sampleFaults(len(s.clients), fm, s.spec.Seed)
	if fm.byzClass() == faultNoise {
		s.advRng = make([]*prng.Rand, len(s.clients))
	}
}

// labelFlip is client id's fixed label rotation: 0 unless it flips
// labels, when every label moves (the offset is never 0 mod classes),
// clients disagree on where, and no RNG is consumed.
func (s *Server) labelFlip(id int) int32 {
	if s.faults == nil || s.faults[id] != faultLabelFlip {
		return 0
	}
	return int32(1 + id%(s.spec.Model.Classes-1))
}

// applyFault corrupts a Byzantine client's finished upload in place,
// after training (FLOPs metered) and before the transport encodes it
// (wire bytes and transfer time price the corrupted vector). Runs on
// shard worker goroutines: it touches only the update buffer and the
// client's private adversary stream, both confined to the one goroutine
// training this client.
//
//fedtripvet:hotpath
func (s *Server) applyFault(c *Client, u *Update) {
	if s.faults == nil {
		return
	}
	switch s.faults[c.ID] {
	case faultSignFlip:
		tensor.Scale(-1, u.Params)
	case faultScale:
		tensor.Scale(s.spec.Faults.Arg, u.Params)
	case faultNoise:
		sigma := s.spec.Faults.Arg
		rng := s.advRng[c.ID]
		if rng == nil {
			// The client's first fault: its stream is derived here, on the
			// worker that owns the client, so an idle client holds none.
			rng = seedStreamN(s.spec.Seed, streamAdvNoise, c.ID)
			s.advRng[c.ID] = rng
		}
		for i := range u.Params {
			u.Params[i] += float64(sigma * rng.NormFloat64())
		}
	case faultNaN:
		nan := math.NaN()
		for i := range u.Params {
			u.Params[i] = nan
		}
	case faultCrash:
		// Garbage with a recognizable shape: alternating infinities. The
		// server's finite screen rejects it; full length keeps the buffer
		// pool and snapshot layout regular.
		inf := math.Inf(1)
		for i := range u.Params {
			if i&1 == 0 {
				u.Params[i] = inf
			} else {
				u.Params[i] = -inf
			}
		}
	}
}

// rotateLabels applies a label-flipping client's fixed permutation to a
// freshly filled batch: label y becomes (y+off) mod classes.
//
//fedtripvet:hotpath
func rotateLabels(y []int, off, classes int) {
	for i, v := range y {
		y[i] = (v + off) % classes
	}
}

// --- the merge path's defenses ---

// screenUpdates is the merge path's graceful-degradation guard, run on
// every aggregation before any weight is consumed. Non-finite uploads
// (divergence, nan/crash faults, a transport that garbled in transit)
// are zero-weighted out and counted — the global model never sees them —
// and the norm-clip guard, when configured, then rescales surviving
// updates onto the admissible ball around the current global model.
//
// It also sets up the buffer's readers (mergeRead) and reports whether
// any update is compact. A compact one is screened widened into the
// merge's scratch, and its clip is kept in its reader, applied to each
// entry as the merge reads it; a dense one is clipped in place.
func (s *Server) screenUpdates(weights []float64, updates []Update) (compact bool) {
	if cap(s.mergeRd) < len(updates) {
		s.mergeRd = make([]mergeRead, len(updates)) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	s.mergeRd = s.mergeRd[:len(updates)]
	maxNorm := s.spec.Policy.Clip
	for i := range updates {
		u := &updates[i]
		rd := &s.mergeRd[i]
		*rd = mergeRead{u: u}
		v := u.Params
		if u.compacted() {
			compact = true
			v = u.Vector(s.widenBuf())
		}
		if tensor.AllFinite(v) {
			if u.compacted() && weights[i] > 0 && maxNorm != 0 {
				rd.scale, rd.clipped = s.clipScale(v, maxNorm)
			}
			continue
		}
		weights[i] = 0
		s.rejectedUpdates++
		if !s.rejectLogged {
			s.rejectLogged = true
			if s.spec.Logf != nil {
				s.spec.Logf("core: rejected non-finite update from client %d (counted in RejectedUpdates; further rejections are silent)", u.ClientID)
			}
		}
	}
	if maxNorm == 0 {
		return compact
	}
	for i := range updates {
		u := &updates[i]
		if weights[i] <= 0 || u.compacted() {
			continue
		}
		if scale, ok := s.clipScale(u.Params, maxNorm); ok {
			clipOnto(u.Params, s.global, scale)
		}
	}
	return compact
}

// clipScale reports whether v lies farther than maxNorm from the global
// model, and the scale that brings it back onto that ball.
func (s *Server) clipScale(v []float64, maxNorm float64) (float64, bool) {
	if len(v) != len(s.global) {
		return 0, false
	}
	var sq float64
	for j, x := range v {
		d := x - s.global[j]
		sq += float64(d * d)
	}
	if n := math.Sqrt(sq); n > maxNorm {
		return maxNorm / n, true
	}
	return 0, false
}

// clipOnto moves v toward g by scale: v = g + scale*(v-g).
func clipOnto(v, g []float64, scale float64) {
	for j := range v {
		v[j] = g[j] + float64(scale*(v[j]-g[j]))
	}
}

// mergeRead is how the merge reads one update of its buffer: a dense
// upload as it lies (the screen clipped it in place), a compact one
// widened whole into scratch (vector) or entry by entry through a cursor
// (at), in either case clipped as it is read, against the global the
// merge has not yet moved.
type mergeRead struct {
	u *Update
	// scale is the clip the screen chose for a compact update; clipped
	// false leaves it unclipped (a zero scale is a clip too).
	scale   float64
	clipped bool
	// next is the patch cursor: the first patch entry at or past the
	// coordinate at reads next.
	next int
}

// vector returns the update as s's merge reads it: a dense one's own
// Params, a compact one widened into the merge's widen scratch and
// clipped against the global.
func (r *mergeRead) vector(s *Server) []float64 {
	if r.u.Params != nil {
		return r.u.Params
	}
	v := r.u.Vector(s.widenBuf())
	if r.clipped {
		clipOnto(v, s.global, r.scale)
	}
	return v
}

// at returns entry j of the update as the merge reads it. On a patch it
// advances the cursor, so calls must come in increasing j from a reset
// cursor.
func (r *mergeRead) at(j int, g []float64) float64 {
	u := r.u
	var v float64
	switch {
	case u.Params != nil:
		return u.Params[j]
	case u.narrow != nil:
		v = float64(u.narrow[j])
	default:
		if p := u.patch; r.next < len(p.idx) && int(p.idx[r.next]) == j {
			v = p.val[r.next]
			r.next++
		} else {
			v = u.baseImage(j)
		}
	}
	if r.clipped {
		v = g[j] + float64(r.scale*(v-g[j]))
	}
	return v
}

// mergeRobust replaces the weighted average with the policy's robust
// aggregate of the positively weighted updates, then applies the merge
// rate like the standard path. It reads the updates through the
// screen's readers; weights have been screened but not normalized.
//
//fedtripvet:hotpath
func (s *Server) mergeRobust(weights []float64, eta float64) {
	adm := s.mergeRd[:0]
	for i, rd := range s.mergeRd {
		if weights[i] > 0 {
			adm = append(adm, rd) //fedtripvet:allow filters mergeRd in place
		}
	}
	if len(adm) == 0 {
		return
	}
	avg := s.mergeBuf()
	k := len(adm)
	switch p := s.spec.Policy; p.Kind {
	case PolicyMedian:
		s.coordWindowInto(avg, adm, (k-1)/2, k/2)
	case PolicyTrimmedMean:
		g := int(p.Arg * float64(k))
		if 2*g >= k {
			g = (k - 1) / 2
		}
		s.coordWindowInto(avg, adm, g, k-1-g)
	case PolicyKrum:
		s.krumInto(avg, adm, p.Arg)
	}
	s.moveGlobal(avg, eta)
}

// moveGlobal moves the global model toward avg by the merge rate eta:
// global' = global + eta*(avg - global), or avg itself at a rate of
// exactly 1.
func (s *Server) moveGlobal(avg []float64, eta float64) {
	if eta == 1 {
		copy(s.global, avg)
		return
	}
	for i := range s.global {
		s.global[i] += float64(eta * (avg[i] - s.global[i]))
	}
}

// coordWindowInto writes the coordinate-wise mean of the sorted window
// [lo, hi] into dst: the median for the maximal trim, the trimmed mean
// otherwise. Each column is gathered through the updates' readers into
// the robCol scratch and sorted in place — no per-merge allocation,
// O(|w| * k log k). Admitted columns are finite (the screen zero-weights
// non-finite uploads), so their sorted order is unique up to the order of
// +0 and -0, which no window sum can tell apart.
//
//fedtripvet:hotpath
func (s *Server) coordWindowInto(dst []float64, rds []mergeRead, lo, hi int) {
	k := len(rds)
	if cap(s.robCol) < k {
		s.robCol = make([]float64, k) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	col := s.robCol[:k]
	inv := 1 / float64(hi-lo+1)
	for j := range dst {
		for i := range rds {
			col[i] = rds[i].at(j, s.global)
		}
		slices.Sort(col)
		var sum float64
		for i := lo; i <= hi; i++ {
			sum += col[i]
		}
		dst[j] = sum * inv
	}
}

// krumInto writes the multi-Krum aggregate into dst: pairwise squared
// distances, each update scored by the sum of its k-f-2 closest, the
// k-f best-scoring averaged (ties broken by buffer index, so the
// selection is deterministic). The distances grow one coordinate at a
// time, every pair's in coordinate order, from a column gathered through
// the readers; only the selected updates are widened whole. O(k^2 |w|)
// distances dominate; all scratch is server-owned.
//
//fedtripvet:hotpath
func (s *Server) krumInto(dst []float64, rds []mergeRead, frac float64) {
	k := len(rds)
	f := int(frac * float64(k))
	if f > k-1 {
		f = k - 1
	}
	keep := k - f
	closest := k - f - 2
	if closest < 1 {
		closest = 1
	}
	if closest > k-1 {
		closest = k - 1
	}
	if cap(s.robDist) < k*k {
		s.robDist = make([]float64, k*k) //fedtripvet:allow server scratch, grows once to the merge buffer size squared
	}
	if cap(s.robCol) < k {
		s.robCol = make([]float64, k) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	if cap(s.robScore) < k {
		s.robScore = make([]float64, k) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	dist := s.robDist[:k*k]
	col := s.robCol[:k]
	score := s.robScore[:k]
	clear(dist)
	for x := range dst {
		for i := range rds {
			col[i] = rds[i].at(x, s.global)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				d := col[i] - col[j]
				dist[i*k+j] += float64(d * d)
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			dist[j*k+i] = dist[i*k+j]
		}
	}
	for i := 0; i < k; i++ {
		m := 0
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			col[m] = dist[i*k+j]
			m++
		}
		slices.Sort(col[:m])
		var sum float64
		for j := 0; j < closest && j < m; j++ {
			sum += col[j]
		}
		score[i] = sum
	}
	// Equal-weight average of the keep best-scoring updates, selected by
	// repeated minimum scan (scores are poisoned as they are taken; index
	// order breaks ties).
	for i := range dst {
		dst[i] = 0
	}
	inv := 1 / float64(keep)
	for sel := 0; sel < keep; sel++ {
		best := -1
		for i := 0; i < k; i++ {
			if score[i] >= 0 && (best < 0 || score[i] < score[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		score[best] = -1
		v := rds[best].vector(s)
		for i := range dst {
			dst[i] += float64(inv * v[i])
		}
	}
}

// mergeBuf returns the |w|-sized merge scratch (shared with the rated
// weighted-average path; merges are single-threaded in every runtime).
func (s *Server) mergeBuf() []float64 {
	if len(s.mergeScratch) != len(s.global) {
		s.mergeScratch = make([]float64, len(s.global))
	}
	return s.mergeScratch
}

// widenBuf returns the |w|-sized scratch the merge widens compact updates
// into, one at a time.
func (s *Server) widenBuf() []float64 {
	if len(s.widenScratch) != len(s.global) {
		s.widenScratch = make([]float64, len(s.global))
	}
	return s.widenScratch
}
