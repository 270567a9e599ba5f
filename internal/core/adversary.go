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
	"unsafe"

	"repro/internal/prng"
	"repro/internal/quantize"
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
	// the client's own stream, right after its training's draws.
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
// stays materialized — one byte per client, the only per-client state a
// fault model adds — because applyFault indexes it from concurrent shard
// workers, where a shared scratch RNG would race. A noise client draws
// from its own stream, and a label-flipping client's rotation is derived
// when the client is built (labelFlip), so nothing here touches a
// client. Called once at run construction; a nil model leaves the server
// entirely honest (and the adversary stream untouched).
func (s *Server) installFaults() {
	if fm := s.spec.Faults; fm != nil {
		s.faults = sampleFaults(len(s.clients), fm, s.spec.Seed)
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
// (wire bytes and transfer time price the corrupted vector): signflip
// negates the uploaded parameter vector, scale multiplies it by Arg, and
// noise adds Arg * N(0,1) to each parameter, drawn from the client's own
// stream where its training left it, so a replay of the participation
// (lazyrows.go), which restores the stream's position before it trains,
// draws the same noise. Runs on shard worker goroutines: it touches only
// the update buffer and the client's stream, both confined to the one
// goroutine training this client.
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
		sigma, rng := s.spec.Faults.Arg, c.RNG()
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

// corrupts reports whether applyFault changes c's upload.
func (s *Server) corrupts(c *Client) bool {
	return s.faults != nil && s.faults[c.ID] != faultNone && s.faults[c.ID] != faultLabelFlip
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
// It also sets up the buffer's readers (mergeRead). A compact update is
// screened a block at a time as its reader reads it — a bitmap-patched
// one that no clip weighs by its values and its base (finiteBits) — and
// its clip is kept in its reader, applied to each entry as the merge
// reads it; a dense one is clipped in place.
func (s *Server) screenUpdates(weights []float64, updates []Update) {
	if cap(s.mergeRd) < len(updates) {
		s.mergeRd = make([]mergeRead, len(updates)) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	s.mergeRd = s.mergeRd[:len(updates)]
	maxNorm := s.spec.Policy.Clip
	var finiteBase []float64
	for i := range updates {
		u := &updates[i]
		rd := &s.mergeRd[i]
		*rd = mergeRead{u: u}
		clip := weights[i] > 0 && maxNorm != 0
		var finite bool
		switch {
		case !u.compacted():
			finite = tensor.AllFinite(u.Params)
		case u.bitmap != nil && !clip:
			finite = s.finiteBits(rd, &finiteBase)
		default:
			var sq float64
			finite, sq = s.screenBlocks(rd, clip)
			if n := math.Sqrt(sq); finite && clip && n > maxNorm {
				rd.scale, rd.clipped = maxNorm/n, true
			}
		}
		if finite {
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
		return
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
}

// screenBlocks reads a compact update through rd a block at a time and
// reports whether every entry is finite and, when clip, its squared
// distance from the global model, summed in entry order as clipScale
// sums it. It leaves rd's cursor reset.
func (s *Server) screenBlocks(rd *mergeRead, clip bool) (finite bool, sq float64) {
	finite = true
	for lo := 0; lo < len(s.global); lo += chunkLen {
		hi := min(lo+chunkLen, len(s.global))
		x := rd.block(lo, hi, s.blockX[:], s.global)
		finite = finite && tensor.AllFinite(x)
		for j := 0; clip && j < len(x); j++ {
			d := x[j] - s.global[lo+j]
			sq += float64(d * d)
		}
	}
	rd.next = 0
	return finite, sq
}

// finiteBits reports, as screenBlocks does, whether a bitmap-patched
// update is finite, without widening it: its values are, and so is its
// base — the updates of a merge mostly share a few, and finiteBase is
// the last found finite in this screen. When the base is not, rd reads
// the update block by block.
func (s *Server) finiteBits(rd *mergeRead, finiteBase *[]float64) bool {
	p, base := rd.u.bitmap, rd.u.base
	for k, c := range p.vals {
		if !tensor.AllFinite(c.v[:min(chunkLen, p.n-k*chunkLen)]) {
			return false
		}
	}
	if len(*finiteBase) == len(base) && &(*finiteBase)[0] == &base[0] {
		return true
	}
	if !tensor.AllFinite(base) {
		finite, _ := s.screenBlocks(rd, false)
		return finite
	}
	*finiteBase = base
	return true
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
// upload as it lies (the screen clipped it in place), a compact one —
// narrowed, or a patch of indices or a bitmap — widened a block at a
// time into scratch, in each case clipped as it is read, against the
// global the merge has not yet moved.
type mergeRead struct {
	u *Update
	// scale is the clip the screen chose for a compact update; clipped
	// false leaves it unclipped (a zero scale is a clip too).
	scale   float64
	clipped bool
	// next is the patch cursor: the first patch entry at or past the
	// block block reads next, or the bitmap patch's next value.
	next int
}

// block returns entries [lo, hi) of the update as the merge reads them:
// a dense one's own Params, a compact one's written into dst. On a patch
// it advances the cursor, so calls must read the blocks in order from a
// reset cursor. It reads entries [lo, hi) of the update's base and of g
// and no others: behind the lock-step gate the base is the global, whose
// blocks before lo the merge has already moved.
//
//fedtripvet:hotpath
func (r *mergeRead) block(lo, hi int, dst, g []float64) []float64 {
	u := r.u
	if u.Params != nil {
		return u.Params[lo:hi]
	}
	dst = dst[:hi-lo]
	switch {
	case u.narrow != nil:
		widen(dst, u.narrow[lo:hi])
	case u.bitmap != nil:
		r.next = u.bitmap.block(dst, u.base, lo, r.next)
	case u.base32 != nil:
		imageBlock(dst, u.base32.block(lo/chunkLen))
	default:
		imageBlock(dst, flat(u.base).block(lo/chunkLen))
	}
	if u.patch != nil {
		for p := u.patch; r.next < len(p.idx) && int(p.idx[r.next]) < hi; r.next++ {
			dst[int(p.idx[r.next])-lo] = p.val[r.next]
		}
	}
	if r.clipped {
		clipOnto(dst, g[lo:hi], r.scale)
	}
	return dst
}

// mergeRobust replaces the weighted average with the policy's robust
// aggregate of the positively weighted updates, then applies the merge
// rate like the standard path. It reads the updates through the
// screen's readers, a block at a time as mergeBlocks does, and moves
// each block of the global once it is aggregated; weights have been
// screened but not normalized.
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
	k := len(adm)
	s.robCol = grow(s.robCol, k)
	switch p := s.spec.Policy; p.Kind {
	case PolicyMedian:
		s.coordWindow(adm, (k-1)/2, k/2, eta)
	case PolicyTrimmedMean:
		g := int(p.Arg * float64(k))
		if 2*g >= k {
			g = (k - 1) / 2
		}
		s.coordWindow(adm, g, k-1-g, eta)
	case PolicyKrum:
		s.krum(adm, p.Arg, eta)
	}
}

// grow returns buf with length n, reallocated only when its capacity is
// short: server scratch that grows once to the merge buffer's size.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	return buf[:n]
}

// readBlocks reads entries [lo, hi) of every update of rds, into the
// merge's k × chunkLen block scratch where they are compact, and returns
// them in s.robRows.
//
//fedtripvet:hotpath
func (s *Server) readBlocks(rds []mergeRead, lo, hi int) [][]float64 {
	s.robBlock = grow(s.robBlock, len(rds)*chunkLen)
	s.robRows = grow(s.robRows, len(rds))
	for i := range rds {
		s.robRows[i] = rds[i].block(lo, hi, s.robBlock[i*chunkLen:(i+1)*chunkLen], s.global)
	}
	return s.robRows
}

// moveBlock moves the global's entries [lo, lo+len(avg)) toward avg by
// the merge rate eta: g' = g + eta*(avg - g), or avg itself at a rate of
// exactly 1.
func (s *Server) moveBlock(lo int, avg []float64, eta float64) {
	g := s.global[lo : lo+len(avg)]
	if eta == 1 {
		copy(g, avg)
		return
	}
	for j := range g {
		g[j] += float64(eta * (avg[j] - g[j]))
	}
}

// coordWindow moves the global toward the coordinate-wise mean of the
// sorted window [lo, hi] of rds: the median for the maximal trim, the
// trimmed mean otherwise. Each column is gathered from the updates'
// blocks into the robCol scratch, where selection puts the window in
// place and sorts it alone — no per-merge allocation, O(|w| * k) —
// and it is summed in ascending order, as a sort of the whole column
// sums it. Admitted columns are finite (the screen zero-weights
// non-finite uploads, and only a clip that overflows makes one a NaN, a
// column sorted whole), so their sorted order is unique up to the order
// of +0 and -0, which no window sum can tell apart.
//
//fedtripvet:hotpath
func (s *Server) coordWindow(rds []mergeRead, lo, hi int, eta float64) {
	col := s.robCol
	inv := 1 / float64(hi-lo+1)
	for b := 0; b < len(s.global); b += chunkLen {
		e := min(b+chunkLen, len(s.global))
		rows := s.readBlocks(rds, b, e)
		avg := s.blockSum[:e-b]
		for j := range avg {
			nan := false
			for i, r := range rows {
				col[i] = r[j]
				nan = nan || r[j] != r[j]
			}
			w := col[lo : hi+1]
			if nan {
				slices.Sort(col)
			} else {
				w = window(col, lo, hi)
			}
			var sum float64
			for _, x := range w {
				sum += x
			}
			avg[j] = sum * inv
		}
		s.moveBlock(b, avg, eta)
	}
}

// window permutes the NaN-free xs so that xs[len(xs)-1-hi : len(xs)-lo]
// holds, in ascending order, what sorting xs puts at [lo, hi], and
// returns it: the (hi+1)-th and (lo+1)-th largest selected in place, the
// entries between them sorted.
func window(xs []float64, lo, hi int) []float64 {
	k := len(xs)
	quantize.SelectDesc(xs, k-hi)
	if hi > lo {
		quantize.SelectDesc(xs[k-hi:], hi-lo)
	}
	w := xs[k-1-hi : k-lo]
	slices.Sort(w)
	return w
}

// krum moves the global toward the multi-Krum aggregate of rds: pairwise
// squared distances, each update scored by the sum of its k-f-2
// closest, the k-f best-scoring averaged (ties broken by buffer index,
// so the selection is deterministic). Every pair's distance is summed in
// coordinate order, a block of every update at a time; the selected
// updates are then read again and averaged block by block, each block of
// the global moving once it is. O(k^2 |w|) distances dominate; all
// scratch is server-owned.
//
//fedtripvet:hotpath
func (s *Server) krum(rds []mergeRead, frac, eta float64) {
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
	s.robDist = grow(s.robDist, k*k)
	s.robScore = grow(s.robScore, k)
	dist, col, score := s.robDist, s.robCol, s.robScore
	clear(dist)
	for b := 0; b < len(s.global); b += chunkLen {
		rows := s.readBlocks(rds, b, min(b+chunkLen, len(s.global)))
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				sq := dist[i*k+j]
				for x, v := range rows[i] {
					d := v - rows[j][x]
					sq += float64(d * d)
				}
				dist[i*k+j] = sq
			}
		}
	}
	for i := 0; i < k; i++ {
		rds[i].next = 0
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
	// The keep best-scoring updates, in the order a repeated minimum scan
	// takes them (scores are poisoned as they are taken; index order
	// breaks ties), fewer when only non-finite scores are left.
	s.robPick = s.robPick[:0]
	for range keep {
		best := -1
		for i := 0; i < k; i++ {
			if score[i] >= 0 && (best < 0 || score[i] < score[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		score[best] = -1
		s.robPick = append(s.robPick, best) //fedtripvet:allow server scratch, grows once to the merge buffer size
	}
	// Their equal-weight average, each entry summed in selection order.
	inv := 1 / float64(keep)
	for b := 0; b < len(s.global); b += chunkLen {
		e := min(b+chunkLen, len(s.global))
		avg := s.blockSum[:e-b]
		clear(avg)
		for _, i := range s.robPick {
			for x, v := range rds[i].block(b, e, s.blockX[:], s.global) {
				avg[x] += float64(inv * v)
			}
		}
		s.moveBlock(b, avg, eta)
	}
}

// scratchBytes is what the server's merge-side scratch holds.
func (s *Server) scratchBytes() int64 {
	return 8*int64(cap(s.widenScratch)+cap(s.robBlock)+cap(s.robCol)+cap(s.robDist)+cap(s.robScore)+cap(s.robPick)) +
		int64(unsafe.Sizeof([]float64(nil)))*int64(cap(s.robRows))
}

// widenBuf returns the |w|-sized scratch Server.hold and the snapshot
// widen a float32 version into, one at a time.
func (s *Server) widenBuf() []float64 {
	if len(s.widenScratch) != len(s.global) {
		s.widenScratch = make([]float64, len(s.global))
	}
	return s.widenScratch
}
