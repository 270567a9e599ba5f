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
// few rounds. The buffered runtime's copies of the global model come from
// it too — one per model version, shared by every job dispatched at that
// version — and so do the evaluator's.
//
// What the pool holds is the most buffers ever checked out at once, never
// O(dispatches * |w|): one global per live model version, one upload per
// buffered arrival, one per in-flight client whose upload is dense, and
// the training and evaluation transients. An upload that differs from the
// float32 image of its version's global in at most a quarter of its
// entries — any sparse uplink — is not held dense while in flight: its
// job keeps a patch (the differing indices and values), returns the
// buffer at once, and pins its version's global until it arrives, when
// it is rebuilt into a buffer again (uploadPatch). out and peak count the
// checkouts, so a test can read that high-water mark.
//
// Buffers are fully overwritten at checkout, so recycling cannot leak one
// client's parameters into another's arithmetic; the aliasing pins in
// pool_test.go prove that upload buffers are never shared between
// concurrent in-flight clients and that a version's global copy is
// handed to nobody else, and never written, while a job trains from it.
type vecPool struct {
	mu   sync.Mutex
	free map[int][][]float64
	// out is the number of buffers checked out and not yet put back, peak
	// its high-water mark since the last resetPeak.
	out, peak int
}

var paramsPool = &vecPool{free: map[int][][]float64{}}

// get returns a length-n buffer with unspecified contents.
func (p *vecPool) get(n int) []float64 {
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
	return make([]float64, n)
}

// getCopy returns a pooled buffer holding a copy of src.
func (p *vecPool) getCopy(src []float64) []float64 {
	buf := p.get(len(src))
	copy(buf, src)
	return buf
}

// put returns a buffer to the free list. The caller must not retain it.
func (p *vecPool) put(buf []float64) {
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
func (p *vecPool) checkouts() (out, peak int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out, p.peak
}

// resetPeak restarts the high-water mark from the current checkouts.
func (p *vecPool) resetPeak() {
	p.mu.Lock()
	p.peak = p.out
	p.mu.Unlock()
}

// recycleUpdates returns every pooled upload buffer in updates to the
// pool and clears the Params fields so a stale reference cannot alias a
// buffer the pool has already handed to another client. Called by every
// runtime after the merge and metrics of an aggregation have consumed the
// updates; updates whose Params came from elsewhere (tests building
// Update literals) are left alone.
func recycleUpdates(updates []Update) {
	for i := range updates {
		if updates[i].pooled {
			paramsPool.put(updates[i].Params)
		}
		updates[i].Params = nil
		updates[i].pooled = false
	}
}

// uploadPatch is an in-flight upload held sparse: the entries where it
// differs, bit for bit, from the float32 image of the global its client
// trained from — which is what every lossy downlink in the tree delivers,
// so a sparse uplink's reconstruction matches it nearly everywhere — and
// its values there. The image plus the patch is the upload exactly,
// whatever the global: the comparison is bitwise, and a vector with too
// many differences is never compacted, so only how compact a patch is
// depends on the base, never whether it is exact. A job's patch keeps its
// storage through the job free list.
type uploadPatch struct {
	idx []int32
	val []float64
}

// f32Image is what a float32 downlink delivers for v.
func f32Image(v float64) float64 { return float64(float32(v)) }

// compact fills p with x's differences from the float32 image of g and
// reports true, or reports false when more than a quarter of x differs.
// The count runs first and stops past that limit, so a dense upload costs
// one partial scan and never grows p.
func (p *uploadPatch) compact(x, g []float64) bool {
	if len(x) > math.MaxInt32 {
		return false
	}
	limit, n := len(x)/4, 0
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(f32Image(g[i])) {
			if n++; n > limit {
				return false
			}
		}
	}
	p.idx, p.val = slices.Grow(p.idx[:0], n), slices.Grow(p.val[:0], n)
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(f32Image(g[i])) {
			p.idx = append(p.idx, int32(i))
			p.val = append(p.val, v)
		}
	}
	return true
}

// materialize writes the upload p was compacted from against g into dst.
func (p *uploadPatch) materialize(dst, g []float64) {
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
