package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/prng"
)

// vecPool is a size-keyed free list for |w|-sized parameter vectors: the
// steady-state train -> upload -> aggregate -> merge cycle checks a buffer
// out in Client.LocalTrain and returns it once the merge has consumed it,
// so a long run's upload traffic costs zero allocations after the first
// few rounds. The buffered runtime's snapshots of the global model come
// from it too — one per model version, shared by every job dispatched at
// that version — and so do the evaluator's copies. The pool is generic
// over the element width: paramsPool holds float64 vectors, narrowPool
// the float32 ones uploads are narrowed into, and the versions held as
// the float32 image a float32 downlink delivers (globalSnap).
//
// What the pools hold is the most buffers ever checked out at once, never
// O(dispatches * |w|): one vector per live model version (float32 under a
// float32 downlink), one dense upload per in-flight or buffered client
// whose upload is neither sparse nor float32-exact, and the training and
// evaluation transients. With a transport an upload is held compact from
// training to the merge (see compact): one within |w|/4 entries of the
// float32 image of its version — any sparse uplink's — as its job's
// patch, which pins that version until the round that merges it; one
// whose every entry is exact in float32 — any f32 uplink's — as a
// narrowPool vector of half the bytes. out and peak count the checkouts,
// so a test can read that high-water mark.
//
// Buffers are fully overwritten at checkout, so recycling cannot leak one
// client's parameters into another's arithmetic; the aliasing pins in
// pool_test.go prove that upload buffers are never shared between
// concurrent in-flight clients and that a version's snapshot is
// handed to nobody else, and never written, while a job trains from it.
type vecPool[T float32 | float64] struct {
	mu   sync.Mutex
	free map[int][][]T
	// out is the number of buffers checked out and not yet put back, peak
	// its high-water mark since the last resetPeak.
	out, peak int
}

var (
	paramsPool = &vecPool[float64]{free: map[int][][]float64{}}
	narrowPool = &vecPool[float32]{free: map[int][][]float32{}}
)

// get returns a length-n buffer with unspecified contents.
func (p *vecPool[T]) get(n int) []T {
	p.mu.Lock()
	p.out++
	p.peak = max(p.peak, p.out)
	list := p.free[n]
	if len(list) > 0 {
		buf := list[len(list)-1]
		p.free[n] = list[:len(list)-1]
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return make([]T, n)
}

// getCopy returns a pooled buffer holding a copy of src.
func (p *vecPool[T]) getCopy(src []T) []T {
	buf := p.get(len(src))
	copy(buf, src)
	return buf
}

// put returns a buffer to the free list. The caller must not retain it.
func (p *vecPool[T]) put(buf []T) {
	if buf == nil {
		return
	}
	p.mu.Lock()
	p.out--
	p.free[len(buf)] = append(p.free[len(buf)], buf)
	p.mu.Unlock()
}

// checkouts returns how many buffers are checked out now and the most that
// were at once since the last resetPeak.
func (p *vecPool[T]) checkouts() (out, peak int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out, p.peak
}

// resetPeak restarts the high-water mark from the current checkouts.
func (p *vecPool[T]) resetPeak() {
	p.mu.Lock()
	p.peak = p.out
	p.mu.Unlock()
}

// recycleUpdates returns every pooled upload buffer in updates to its
// pool and clears the updates' vectors so a stale reference cannot alias
// a buffer the pool has already handed to another client. Called by every
// runtime after the merge and metrics of an aggregation have consumed the
// updates; updates whose Params came from elsewhere (tests building
// Update literals) are left alone.
func recycleUpdates(updates []Update) {
	for i := range updates {
		updates[i].recycle()
	}
}

// recycle returns u's pooled vector, dense or narrowed, and drops every
// vector u refers to.
func (u *Update) recycle() {
	if u.pooled {
		paramsPool.put(u.Params)
	}
	narrowPool.put(u.narrow)
	u.Params, u.narrow, u.patch, u.base, u.base32 = nil, nil, nil, nil, nil
	u.pooled = false
}

// holdNarrow moves u's pooled dense upload, every entry of which is
// exact in float32, into a narrowPool vector of half the bytes.
func (u *Update) holdNarrow() {
	u.narrow = narrowed(u.Params)
	paramsPool.put(u.Params)
	u.Params, u.pooled = nil, false
}

// widen turns a compact u into a dense one in a pooled buffer.
func (u *Update) widen() {
	if !u.compacted() {
		return
	}
	v := u.Vector(paramsPool.get(u.size()))
	u.recycle()
	u.Params, u.pooled = v, true
}

// Vector writes the upload u carries into dst, grown to |w| when it is
// shorter, and returns it. It reads every form an upload is held in: the
// dense Params, or — Params nil — a float32 narrowing or a patch against
// the float32 image of the version its client trained from. A hook that
// keeps an upload past its call (Config.OnUpdates) reads it here.
func (u *Update) Vector(dst []float64) []float64 {
	n := u.size()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch {
	case u.narrow != nil:
		widen(dst, u.narrow)
	case u.base32 != nil:
		materialize(u.patch, dst, u.base32)
	case u.patch != nil:
		materialize(u.patch, dst, u.base)
	default:
		copy(dst, u.Params)
	}
	return dst
}

// size is how many parameters u's upload has, whichever form holds it.
func (u *Update) size() int {
	switch {
	case u.narrow != nil:
		return len(u.narrow)
	case u.patch != nil:
		return len(u.base) + len(u.base32)
	}
	return len(u.Params)
}

// baseImage is entry j of the float32 image of u's patch base.
func (u *Update) baseImage(j int) float64 {
	if u.base32 != nil {
		return f32Image(u.base32[j])
	}
	return f32Image(u.base[j])
}

// widen writes v at float64 into dst and returns dst.
func widen(dst []float64, v []float32) []float64 {
	for i, x := range v {
		dst[i] = float64(x)
	}
	return dst
}

// narrowed returns v at float32 in a narrowPool vector.
func narrowed(v []float64) []float32 {
	dst := narrowPool.get(len(v))
	for i, x := range v {
		dst[i] = float32(x)
	}
	return dst
}

// compacted reports whether u is held narrowed or patched, Params nil.
func (u *Update) compacted() bool { return u.narrow != nil || u.patch != nil }

// uploadPatch is an upload held sparse: the entries where it differs, bit
// for bit, from the float32 image of the version its client trained from
// — which is what every lossy downlink in the tree delivers, so a sparse
// uplink's reconstruction matches it nearly everywhere — and its values
// there. The version is the global, or, under a float32 downlink, the
// float32 vector the runtime holds for it (globalSnap), which is its own
// image. The image plus the patch is the upload exactly, whatever the
// base: the comparison is bitwise, and a vector with too many
// differences is never compacted, so only how compact a patch is depends
// on the base, never whether it is exact. A job's patch keeps its storage
// through the job free list; its update points at it, and at the version
// it was taken against, until the round that merges it is done.
type uploadPatch struct {
	idx []int32
	val []float64
}

// f32Image is what a float32 downlink delivers for v: v itself, widened,
// when v is a float32.
func f32Image[T float32 | float64](v T) float64 { return float64(float32(v)) }

// compact fills p with x's differences from the float32 image of g and
// reports sparse when at most a quarter of x differs; otherwise it leaves
// p alone and reports whether every entry of x survives a round trip
// through float32 bit for bit (exact), so x can be held narrowed. One scan
// answers both: it stops once x is past the patch limit and an inexact
// entry has shown up, so a dense upload costs one partial scan and never
// grows p.
func compact[T float32 | float64](p *uploadPatch, x []float64, g []T) (sparse, exact bool) {
	if len(x) > math.MaxInt32 {
		return false, false
	}
	limit, n := len(x)/4, 0
	exact = true
	for i, v := range x {
		bits := math.Float64bits(v)
		if bits != math.Float64bits(f32Image(g[i])) {
			n++
		}
		if exact && bits != math.Float64bits(f32Image(v)) {
			exact = false
		}
		if n > limit && !exact {
			return false, false
		}
	}
	if n > limit {
		return false, exact
	}
	p.idx, p.val = slices.Grow(p.idx[:0], n), slices.Grow(p.val[:0], n)
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(f32Image(g[i])) {
			p.idx = append(p.idx, int32(i))
			p.val = append(p.val, v)
		}
	}
	return true, exact
}

// materialize writes the upload p was compacted from against g into dst.
func materialize[T float32 | float64](p *uploadPatch, dst []float64, g []T) {
	for i, v := range g {
		dst[i] = f32Image(v)
	}
	for k, i := range p.idx {
		dst[i] = p.val[k]
	}
}

// randPermInto fills buf with a permutation of [0, n), drawing from rng
// exactly like rand.Perm does (same algorithm, same number of Intn calls),
// so replacing rand.Perm with it never shifts a trajectory — it only
// removes the per-call allocation.
func randPermInto(rng *prng.Rand, buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}
