package core

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/prng"
)

// TestJobHeapMatchesSortedReference drives the indexed event heap, with
// the client index on, through random sequences of push, pop, fix after a
// key change and byClient, and checks every step against a slice kept
// sorted by jobLess: pop and peek return its head, byClient finds exactly
// the clients it holds, and every queued job's heapIdx and slot agree.
func TestJobHeapMatchesSortedReference(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 20; seed++ {
		rng := prng.New(seed)
		var h jobHeap
		h.trackClients(n)
		var ref []*trainJob // sorted by jobLess
		queued := make([]*trainJob, n)
		seq := 0
		resort := func() { slices.SortFunc(ref, cmpJobs) }
		// A coarse grid of arrival times forces ties through the seq
		// tie-break; a parked job's arrival jumps past all of them.
		finish := func() float64 {
			if rng.Intn(8) == 0 {
				return 1e9
			}
			return float64(rng.Intn(12))
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && len(ref) < n:
				id := rng.Intn(n)
				for queued[id] != nil {
					id = (id + 1) % n
				}
				j := job(finish(), seq, id)
				seq++
				heap.Push(&h, j)
				queued[id] = j
				ref = append(ref, j)
				resort()
			case op == 1 && len(ref) > 0:
				got, want := heap.Pop(&h).(*trainJob), ref[0]
				if got != want {
					t.Fatalf("seed %d step %d: popped client %d (finish %v seq %d), want client %d (finish %v seq %d)",
						seed, step, got.c.ID, got.finish, got.seq, want.c.ID, want.finish, want.seq)
				}
				if got.heapIdx != -1 {
					t.Fatalf("seed %d step %d: popped job keeps heap index %d", seed, step, got.heapIdx)
				}
				ref = ref[1:]
				queued[got.c.ID] = nil
			case op == 2 && len(ref) > 0:
				j := ref[rng.Intn(len(ref))]
				j.finish = finish()
				heap.Fix(&h, j.heapIdx)
				resort()
			default:
				id := rng.Intn(n)
				if got := h.byClient(id); got != queued[id] {
					t.Fatalf("seed %d step %d: byClient(%d) = %p, want %p", seed, step, id, got, queued[id])
				}
			}
			if h.Len() != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d jobs, reference %d", seed, step, h.Len(), len(ref))
			}
			if len(ref) > 0 && h.peek() != ref[0] {
				t.Fatalf("seed %d step %d: peek is not the reference minimum", seed, step)
			}
			for _, j := range ref {
				if h.js[j.heapIdx] != j || h.byClient(j.c.ID) != j {
					t.Fatalf("seed %d step %d: client %d's job is not where its index says", seed, step, j.c.ID)
				}
			}
		}
	}
}

// cmpJobs is jobLess as a three-way comparison.
func cmpJobs(a, b *trainJob) int {
	switch {
	case jobLess(a, b):
		return -1
	case jobLess(b, a):
		return 1
	}
	return 0
}

// TestChurnHeapMatchesSortedReference checks the churn event queue against
// a sorted slice under random push/pop sequences with tied times.
func TestChurnHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := prng.New(seed)
		var h churnHeap
		var ref []churnEvent
		var seq int64
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				e := churnEvent{at: float64(rng.Intn(10)), seq: seq, id: int32(rng.Intn(4)), kind: churnEventKind(rng.Intn(2))}
				seq++
				heap.Push(&h, e)
				i, _ := slices.BinarySearchFunc(ref, e, func(a, b churnEvent) int {
					if churnLess(a, b) {
						return -1
					}
					return 1
				})
				ref = slices.Insert(ref, i, e)
			} else {
				if got, want := heap.Pop(&h).(churnEvent), ref[0]; got != want {
					t.Fatalf("seed %d step %d: popped %+v, want %+v", seed, step, got, want)
				}
				ref = ref[1:]
			}
			if h.Len() != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d events, reference %d", seed, step, h.Len(), len(ref))
			}
		}
	}
}
