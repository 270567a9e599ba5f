package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/prng"
)

// vecPool is a size-keyed free list for |w|-sized parameter vectors: an
// upload that stays dense is copied into a buffer checked out where it
// is trained (Server.trainClient, Client.LocalTrain) and returned once
// the merge has consumed it, so a long run's upload traffic costs zero
// allocations after the first few rounds. The buffered runtime's
// snapshots of the global model come from it too — one per model
// version, shared by every job dispatched at that version — and so do
// the evaluator's copies and the vector a float32 version is widened
// into while Server.hold or a snapshot needs it. The pool is generic
// over the element width: paramsPool holds float64 vectors, narrowPool
// the float32 ones uploads are narrowed into. A version held as the
// float32 image a float32 downlink delivers is made of its run's blocks
// instead (globalSnap, blockStore), and an index patch of its run's
// patchStore.
//
// What the pools hold is the most buffers ever checked out at once, never
// O(dispatches * |w|): one vector per live model version held at float64,
// one dense upload per buffered client and per trained in-flight one
// whose upload is held in no compact form (a job waiting to train has
// none), the float64 vectors a run carves its bitmap patches' chunks
// from, and the evaluation and widening transients. An upload over a
// transport is coded where training leaves it, in the engine model's
// parameters, so a compact one costs no float64 vector at all. A
// lock-step round that folds its uploads into its mean as they arrive
// (roundMean) returns each upload's buffer once it is folded, so it
// holds a window of one upload per shard, plus any that arrived ahead of
// an earlier one, not its K; a round that merges at its end holds all K
// until then. An upload is held compact from training to the merge.
// With a transport (see compact): one within |w|/4 entries of the
// float32 image of its version — any sparse uplink's — as a patch of its
// run's patchStore, which pins that version until the round that merges
// it; one whose every entry is exact in float32 — any f32 uplink's — as
// a narrowPool vector of half the bytes. Without one, when its version
// stays alive anyway and that takes fewer bytes than |w| float64s: as a
// bitmap patch against the version (bitPatch), its values in chunks of
// its run's chunkStore, 4 KiB each, so a float64 vector of the pool
// holds the values of several uploads. out and peak count the checkouts,
// so a test can read that high-water mark.
//
// Buffers are fully overwritten at checkout, so recycling cannot leak one
// client's parameters into another's arithmetic; the aliasing pins in
// pool_test.go prove that upload buffers are never shared between
// concurrent in-flight clients and that a version's snapshot is
// handed to nobody else, and never written, while a job trains from it,
// and uploadalias_test.go that a held upload, compact or dense, keeps
// its value while later jobs train on the engine it was coded in.
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

// held is what p's free list holds.
func (p *vecPool[T]) held() Held {
	p.mu.Lock()
	defer p.mu.Unlock()
	var h Held
	var zero T
	for _, list := range p.free {
		for _, buf := range list {
			h.add(cap(buf) * int(unsafe.Sizeof(zero)))
		}
	}
	return h
}

// DrainPools empties the process's vector pools' free lists, so what a
// caller measures afterwards — the pools' holdings, a run's allocations —
// starts from what no earlier run in the process left behind.
func DrainPools() {
	for _, p := range []interface{ drain() }{paramsPool, narrowPool} {
		p.drain()
	}
}

func (p *vecPool[T]) drain() {
	p.mu.Lock()
	clear(p.free)
	p.mu.Unlock()
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

// recycle returns u's pooled vector, dense or narrowed, or its patch,
// of indices or a bitmap, and drops every vector u refers to.
func (u *Update) recycle() {
	if u.pooled {
		paramsPool.put(u.Params)
	}
	narrowPool.put(u.narrow)
	if u.patch != nil {
		u.patch.release()
	}
	if u.bitmap != nil {
		u.bitmap.release()
	}
	u.Params, u.narrow, u.patch, u.bitmap, u.base, u.base32 = nil, nil, nil, nil, nil, nil
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
// dense Params, or — Params nil — a float32 narrowing, a patch against
// the float32 image of the version its client trained from, or a bitmap
// patch against that version itself. A hook that keeps an upload past
// its call (Config.OnUpdates) reads it here.
func (u *Update) Vector(dst []float64) []float64 {
	n := u.size()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch {
	case u.narrow != nil:
		widen(dst, u.narrow)
	case u.bitmap != nil:
		u.bitmap.block(dst, u.base, 0, 0)
	case u.base32 != nil:
		materialize(u.patch, dst, u.base32)
	case u.patch != nil:
		materialize(u.patch, dst, flat(u.base))
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
	case u.base32 != nil:
		return u.base32.n
	case u.patch != nil, u.bitmap != nil:
		return len(u.base)
	}
	return len(u.Params)
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
func (u *Update) compacted() bool { return u.narrow != nil || u.patch != nil || u.bitmap != nil }

// uploadPatch is an upload held sparse: the entries where it differs, bit
// for bit, from the float32 image of the version its client trained from
// — which is what every lossy downlink in the tree delivers, so a sparse
// uplink's reconstruction matches it nearly everywhere — and its values
// there. The version is the global, or, under a float32 downlink, the
// float32 vector the runtime holds for it (globalSnap), which is its own
// image. The image plus the patch is the upload exactly, whatever the
// base: the comparison is bitwise, and a vector with too many
// differences is never compacted, so only how compact a patch is depends
// on the base, never whether it is exact. A patch belongs to its run's
// patchStore: an upload holds it, and the version it was taken against,
// until the round that merges it is done, and it goes back to the store,
// with its storage, when the upload is recycled.
type uploadPatch struct {
	store *patchStore
	idx   []int32
	val   []float64
}

// patchStore is what a run's index patches are made of: the patches no
// upload holds, each keeping the storage of the last upload it held. A
// compaction takes the last one returned, or a new one when none is
// free, and an upload that is not sparse gives it back at once; so the
// storage a run keeps is the most patches its uploads held at once,
// whatever its jobs number. It is touched by the shards, which take
// patches, and by the event loop, which gives them back.
type patchStore struct {
	mu   sync.Mutex
	free []*uploadPatch
}

// get returns a free patch of unspecified contents.
func (st *patchStore) get() *uploadPatch {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.free)
	if n == 0 {
		return &uploadPatch{store: st}
	}
	p := st.free[n-1]
	st.free = st.free[:n-1]
	return p
}

// release gives p back to its store; a patch built outside a run has
// none, and is dropped.
func (p *uploadPatch) release() {
	st := p.store
	if st == nil {
		return
	}
	st.mu.Lock()
	st.free = append(st.free, p) //fedtripvet:allow grows to the most patches the run holds at once
	st.mu.Unlock()
}

// held is the storage of the store's free patches, those that have any.
func (st *patchStore) held() Held {
	st.mu.Lock()
	defer st.mu.Unlock()
	var h Held
	for _, p := range st.free {
		if cap(p.idx) > 0 {
			h.add(4*cap(p.idx) + 8*cap(p.val))
		}
	}
	return h
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
func compact[T float32 | float64, V version[T]](p *uploadPatch, x []float64, g V) (sparse, exact bool) {
	if len(x) > math.MaxInt32 {
		return false, false
	}
	limit, n := len(x)/4, 0
	exact = true
	for lo := 0; lo < len(x); lo += chunkLen {
		for i, v := range g.block(lo / chunkLen) {
			bits := math.Float64bits(x[lo+i])
			if bits != math.Float64bits(f32Image(v)) {
				n++
			}
			if exact && bits != math.Float64bits(f32Image(x[lo+i])) {
				exact = false
			}
		}
		if n > limit && !exact {
			return false, false
		}
	}
	if n > limit {
		return false, exact
	}
	p.idx, p.val = slices.Grow(p.idx[:0], n), slices.Grow(p.val[:0], n)
	for lo := 0; lo < len(x); lo += chunkLen {
		for i, v := range g.block(lo / chunkLen) {
			if math.Float64bits(x[lo+i]) != math.Float64bits(f32Image(v)) {
				p.idx = append(p.idx, int32(lo+i))
				p.val = append(p.val, x[lo+i])
			}
		}
	}
	return true, exact
}

// materialize writes the upload p was compacted from against g into dst.
func materialize[T float32 | float64, V version[T]](p *uploadPatch, dst []float64, g V) {
	for lo := 0; lo < len(dst); lo += chunkLen {
		imageBlock(dst[lo:], g.block(lo/chunkLen))
	}
	for k, i := range p.idx {
		dst[i] = p.val[k]
	}
}

// imageBlock writes the float32 image of a block of a version into dst.
func imageBlock[T float32 | float64](dst []float64, blk []T) {
	for i, v := range blk {
		dst[i] = f32Image(v)
	}
}

// chunkLen is how many values one chunk of a bitmap patch holds: 4 KiB.
const chunkLen = 512

// chunk is one chunk of a bitmap patch's values, and i its place in its
// store (chunkStore).
type chunk struct {
	v *[chunkLen]float64
	i int32
}

// bitPatch is an upload held as its changes against the version its
// client trained from, when it went over no transport: a bitmap with a
// bit set for each entry whose bits differ from the version's, and
// those entries' values, in index order, chunkLen to a chunk. The
// version plus the patch is the upload exactly: the comparison is
// bitwise, so ±0 and NaN payloads survive it. A patch belongs to its
// run's chunkStore, and goes back there, with its chunks, when its
// upload is recycled; so an upload holds chunks for the values it has,
// never a job's largest patch.
type bitPatch struct {
	store *chunkStore
	bits  []uint64
	vals  []chunk
	n     int // values held
}

// chunkStore is what a run's bitmap patches are made of. The patches,
// each a bitmap and a chunk table sized for |w|, are built a slab at a
// time as the run first takes them, up to as many as it can hold
// uploads at once. The chunks are carved
// from |w|-sized blocks of paramsPool, |w|/chunkLen to a block, so a
// vector the pool holds free serves a dense upload or a patch's values
// alike; chunk i is the (i mod per)-th of block i/per, and a patch
// takes the lowest free ones, which keeps the blocks of the last chunks
// taken free when fewer are out. A store is touched by the shards,
// which take patches, and by the event loop, which gives them back.
// After every merge, and when the run closes, the blocks no upload holds
// a chunk of go back to paramsPool (trim); a closed run's others stay
// with its queued uploads, and the garbage collector takes them with the
// run.
type chunkStore struct {
	mu sync.Mutex
	// block is the length of the vectors chunks are carved from: |w|,
	// or one chunk's when |w| is shorter; per is how many it holds.
	block, per int
	// words and chunks size a patch's bitmap and chunk table; slab is
	// how many patches one slab builds, and most how many the store
	// builds at most.
	words, chunks, slab, most int
	// slabs are the patches built so far, patches the free ones.
	slabs   [][]bitPatch
	patches []*bitPatch
	blocks  [][]float64
	// free has bit i set when chunk i is carved and no patch holds it,
	// and no word of it below low has a bit set; out counts the chunks
	// patches hold.
	free []uint64
	low  int
	out  int
}

// newChunkStore builds a store of at most most patches for uploads of n
// entries, built slab at a time: the first with the store.
func newChunkStore(n, slab, most int) *chunkStore {
	words, chunks, block := (n+63)/64, (n+chunkLen-1)/chunkLen, max(n, chunkLen)
	per := block / chunkLen
	blocks := (most*chunks+per-1)/per + 1 // the most a run carves
	st := &chunkStore{
		block:   block,
		per:     per,
		words:   words,
		chunks:  chunks,
		slab:    slab,
		most:    most,
		slabs:   make([][]bitPatch, 0, (most+slab-1)/slab),
		patches: make([]*bitPatch, 0, most),
		blocks:  make([][]float64, 0, blocks),
		free:    make([]uint64, (blocks*per+63)/64),
	}
	st.build()
	return st
}

// build adds a slab of free patches to the store, the last one short so
// that the store builds no more than most.
func (st *chunkStore) build() {
	k := min(st.slab, st.most-len(st.slabs)*st.slab)
	ps := make([]bitPatch, k)
	bits := make([]uint64, k*st.words)
	tables := make([]chunk, k*st.chunks)
	for i := range ps {
		ps[i] = bitPatch{store: st, bits: bits[i*st.words : (i+1)*st.words : (i+1)*st.words], vals: tables[i*st.chunks : i*st.chunks : (i+1)*st.chunks]}
		st.patches = append(st.patches, &ps[i]) //fedtripvet:allow sized with the run for the most patches it builds
	}
	st.slabs = append(st.slabs, ps) //fedtripvet:allow sized with the run for the slabs it builds
}

// patch returns a patch with no values and a bitmap of unspecified
// contents, building a slab when none is free, or nil when every patch
// is taken.
func (st *chunkStore) patch() *bitPatch {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.patches) == 0 && len(st.slabs)*st.slab < st.most {
		st.build()
	}
	n := len(st.patches)
	if n == 0 {
		return nil
	}
	p := st.patches[n-1]
	st.patches = st.patches[:n-1]
	return p
}

// fill gives p chunks up to k, the lowest free ones, carving a block
// from paramsPool whenever none is free, and reports false, giving it
// none, when p's table cannot take them.
func (st *chunkStore) fill(p *bitPatch, k int) bool {
	if k > cap(p.vals) {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.out += k - len(p.vals)
	w := st.low
	for len(p.vals) < k {
		for w < len(st.free) && st.free[w] == 0 {
			w++
		}
		if w*64 >= len(st.blocks)*st.per {
			w = st.carve() / 64
			continue
		}
		b := bits.TrailingZeros64(st.free[w])
		st.free[w] &^= 1 << b
		i := w*64 + b
		p.vals = append(p.vals, chunk{v: (*[chunkLen]float64)(st.blocks[i/st.per][i%st.per*chunkLen:]), i: int32(i)}) //fedtripvet:allow the table holds every chunk of a |w|-entry patch
	}
	st.low = w
	return true
}

// carve adds a block of paramsPool to the store, in the first place a
// block went back from or past the last, its chunks free, and returns
// the place of its first chunk.
func (st *chunkStore) carve() int {
	b := slices.IndexFunc(st.blocks, func(v []float64) bool { return v == nil })
	if b < 0 {
		b = len(st.blocks)
		st.blocks = append(st.blocks, nil) //fedtripvet:allow sized with the run for the blocks it carves at most
	}
	st.blocks[b] = paramsPool.get(st.block)
	first := b * st.per
	for len(st.free)*64 < first+st.per {
		st.free = append(st.free, 0) //fedtripvet:allow sized with the run for the blocks it carves at most
	}
	for i := first; i < first+st.per; i++ {
		st.free[i/64] |= 1 << (i % 64)
	}
	return first
}

// release gives p's chunks, and p, back to its store.
func (p *bitPatch) release() {
	st := p.store
	st.mu.Lock()
	for _, c := range p.vals {
		st.free[c.i/64] |= 1 << (c.i % 64)
		st.low = min(st.low, int(c.i/64))
	}
	st.out -= len(p.vals)
	clear(p.vals)
	p.vals = p.vals[:0]
	st.patches = append(st.patches, p) //fedtripvet:allow a returned patch goes back to the slot it left
	st.mu.Unlock()
}

// trim gives back to paramsPool every block of which no upload holds a
// chunk, leaving its place nil, so the blocks a run holds follow the
// chunks its uploads hold: once its merges have recycled a round's
// uploads, and at its close.
func (st *chunkStore) trim() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for b, block := range st.blocks {
		if block == nil {
			continue
		}
		all := true
		for i := b * st.per; i < (b+1)*st.per && all; i++ {
			all = st.free[i/64]>>(i%64)&1 != 0
		}
		if all {
			paramsPool.put(block)
			st.blocks[b] = nil
			for i := b * st.per; i < (b+1)*st.per; i++ {
				st.free[i/64] &^= 1 << (i % 64)
			}
		}
	}
}

// close packs the chunks the run's queued uploads hold into the lowest
// free places, highest first, copying their values, so that trim gives
// back every block past them, not every block with one of them left.
func (st *chunkStore) close() {
	if st.out > 0 {
		held := make([]*chunk, 0, st.out)
		for _, ps := range st.slabs {
			for i := range ps {
				for k := range ps[i].vals {
					held = append(held, &ps[i].vals[k])
				}
			}
		}
		slices.SortFunc(held, func(a, b *chunk) int { return int(b.i - a.i) })
		st.mu.Lock()
		for _, c := range held {
			w := 0
			for w < len(st.free) && st.free[w] == 0 {
				w++
			}
			if w == len(st.free) {
				break
			}
			i := w*64 + bits.TrailingZeros64(st.free[w])
			if i > int(c.i) {
				break
			}
			to := (*[chunkLen]float64)(st.blocks[i/st.per][i%st.per*chunkLen:])
			*to = *c.v
			st.free[w] &^= 1 << (i % 64)
			st.free[c.i/64] |= 1 << (c.i % 64)
			*c = chunk{v: to, i: int32(i)}
		}
		st.mu.Unlock()
	}
	st.trim()
}

// held is what the store holds free: its chunks and its patches'
// bitmaps and chunk tables.
func (st *chunkStore) held() Held {
	st.mu.Lock()
	defer st.mu.Unlock()
	var h Held
	for _, w := range st.free {
		n := bits.OnesCount64(w)
		h.N += n
		h.Bytes += int64(n) * 8 * chunkLen
	}
	for _, p := range st.patches {
		h.add(8*cap(p.bits) + int(unsafe.Sizeof(chunk{}))*cap(p.vals))
	}
	return h
}

// holdBits returns x as a bitmap patch of st against g, the version its
// client trained from, when that takes fewer bytes than x — the bitmap
// and the whole chunks its values fill — and nil otherwise.
func (st *chunkStore) holdBits(x, g []float64) *bitPatch {
	words := (len(x) + 63) / 64
	return st.takeBits(x, g, (len(x)-words-1)/chunkLen*chunkLen)
}

// takeBits returns x as a bitmap patch against g when at most limit of
// its entries differ, and nil otherwise (or when st holds no free
// patch). One scan marks the bitmap a word at a time, gathers the
// word's changed values without a branch per entry and appends them to
// the patch's chunks, and stops once x is past the limit.
//
//fedtripvet:hotpath
func (st *chunkStore) takeBits(x, g []float64, limit int) *bitPatch {
	if limit < 0 {
		return nil
	}
	p := st.patch()
	if p == nil {
		return nil
	}
	var stage [64]float64
	n, k := 0, chunkLen // k is the next place in the newest chunk
	for w := range p.bits {
		var word uint64
		m := 0
		xw := x[w*64 : min(w*64+64, len(x))]
		gw := g[w*64 : w*64+len(xw)]
		for b, v := range xw {
			d := math.Float64bits(v) ^ math.Float64bits(gw[b])
			bit := (d | -d) >> 63
			word |= bit << (b & 63)
			stage[m&63] = v
			m += int(bit)
		}
		p.bits[w] = word
		if n += m; n > limit {
			p.release()
			return nil
		}
		for v := stage[:m]; len(v) > 0; {
			if k == chunkLen {
				if !st.fill(p, len(p.vals)+1) {
					p.release()
					return nil
				}
				k = 0
			}
			c := copy(p.vals[len(p.vals)-1].v[k:], v)
			k, v = k+c, v[c:]
		}
	}
	p.n = n
	return p
}

// block writes entries [lo, hi) of the upload p was taken from against
// g into dst, lo a multiple of 64, reading p's values from the k-th on,
// and returns the index of the first value past them.
//
//fedtripvet:hotpath
func (p *bitPatch) block(dst, g []float64, lo, k int) int {
	copy(dst, g[lo:lo+len(dst)])
	c, off := k/chunkLen, k%chunkLen
	for w := lo / 64; w*64 < lo+len(dst); w++ {
		dw := dst[w*64-lo : min(w*64-lo+64, len(dst))]
		for word := p.bits[w]; word != 0; word &= word - 1 {
			if off == chunkLen {
				c, off = c+1, 0
			}
			dw[bits.TrailingZeros64(word)] = p.vals[c].v[off]
			off++
		}
	}
	return c*chunkLen + off
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
