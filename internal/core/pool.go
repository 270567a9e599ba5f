package core

import (
	"sync"

	"repro/internal/prng"
)

// vecPool is a size-keyed free list for |w|-sized parameter vectors: the
// steady-state train -> upload -> aggregate -> merge cycle checks a buffer
// out in Client.LocalTrain and returns it once the merge has consumed it,
// so a long run's upload traffic costs zero allocations after the first
// few rounds. The buffered runtime's copies of the global model come from
// it too — one per model version, shared by every job dispatched at that
// version and returned with the last of their joins — and so do the
// evaluator's. The pool holds as many buffers as were ever simultaneously
// checked out: one upload per in-flight client plus one global per model
// version in flight, never O(dispatches * |w|).
//
// Buffers are fully overwritten at checkout, so recycling cannot leak one
// client's parameters into another's arithmetic; the aliasing pins in
// pool_test.go prove that upload buffers are never shared between
// concurrent in-flight clients and that a version's global copy is
// handed to nobody else, and never written, while a job trains from it.
type vecPool struct {
	mu   sync.Mutex
	free map[int][][]float64
}

var paramsPool = &vecPool{free: map[int][][]float64{}}

// get returns a length-n buffer with unspecified contents.
func (p *vecPool) get(n int) []float64 {
	p.mu.Lock()
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
	p.free[len(buf)] = append(p.free[len(buf)], buf)
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
