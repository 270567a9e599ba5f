package core

// jobHeap is an indexed binary min-heap of in-flight jobs keyed on
// (finish, seq): earliest virtual arrival first, ties broken by dispatch
// sequence so replays are deterministic. The old event loop popped the
// earliest job with a linear scan, which was fine at tens of in-flight
// clients and quadratic pain at thousands; the heap makes every push/pop
// O(log n). Each job carries its heap slot (heapIdx) so membership checks
// are O(1) and a key can change in place.
//
// With trackClients enabled the heap additionally maintains a client-ID →
// slot index, which is what lets the churn process find a dropped
// client's in-flight job in O(1) without a fleet-wide inflight pointer
// array: every queued job is reachable through the heap it already sits
// in. An int32 per client instead of a pointer per client also halves the
// state the GC has to scan at million-client populations.
type jobHeap struct {
	js []*trainJob
	// slot[id] is 1 + the heap index of client id's queued job, 0 when the
	// client has no job in the heap. nil disables tracking (bare heaps in
	// tests).
	slot []int32
}

// trackClients sizes the client-ID index for a population of n. Must be
// called before the first push.
func (h *jobHeap) trackClients(n int) {
	h.slot = make([]int32, n)
}

// byClient returns client id's queued job, or nil when the client has no
// job in the heap (idle, offline, or its update is sitting in the merge
// buffer). Only valid after trackClients.
func (h *jobHeap) byClient(id int) *trainJob {
	s := h.slot[id]
	if s == 0 {
		return nil
	}
	return h.js[s-1]
}

// jobLess orders jobs by virtual arrival time, then by dispatch sequence,
// then (defensively — seq is unique in the runtime) by client index.
func jobLess(a, b *trainJob) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.c.ID < b.c.ID
}

// peek returns the earliest job without removing it; nil when empty.
func (h *jobHeap) peek() *trainJob {
	if len(h.js) == 0 {
		return nil
	}
	return h.js[0]
}

// The heap.Interface methods. container/heap does the sifting; Swap, Push
// and Pop keep each job's heapIdx and the client index current, so a
// job's key can change in place under heap.Fix(h, j.heapIdx) — which is
// how the churn process parks an in-flight arrival until its client
// rejoins. The order is strict (seq is unique), so the pops are fixed
// whatever the array layout; a snapshot writes the jobs sorted, a
// layout that is a valid heap and depends on nothing but their keys.

func (h *jobHeap) Len() int { return len(h.js) }

func (h *jobHeap) Less(i, k int) bool { return jobLess(h.js[i], h.js[k]) }

func (h *jobHeap) Swap(i, k int) {
	h.js[i], h.js[k] = h.js[k], h.js[i]
	h.js[i].heapIdx = i
	h.js[k].heapIdx = k
	if h.slot != nil {
		h.slot[h.js[i].c.ID] = int32(i) + 1
		h.slot[h.js[k].c.ID] = int32(k) + 1
	}
}

// Push appends a *trainJob; use heap.Push.
func (h *jobHeap) Push(x any) {
	j := x.(*trainJob)
	j.heapIdx = len(h.js)
	h.js = append(h.js, j)
	if h.slot != nil {
		h.slot[j.c.ID] = int32(j.heapIdx) + 1
	}
}

// Pop removes the last job and returns it as a *trainJob; use heap.Pop.
func (h *jobHeap) Pop() any {
	last := len(h.js) - 1
	j := h.js[last]
	h.js[last] = nil
	h.js = h.js[:last]
	j.heapIdx = -1
	if h.slot != nil {
		h.slot[j.c.ID] = 0
	}
	return j
}

// dueHeap holds the in-flight jobs that have not trained, earliest
// dispatch bound first, ties by dispatch sequence: the order the event
// loop trains them in (bufferedRunner.trainDue). Each job carries its
// slot (dueIdx), so one can leave out of turn.
type dueHeap []*trainJob

func (h dueHeap) Len() int { return len(h) }

func (h dueHeap) Less(i, k int) bool {
	if h[i].bound != h[k].bound {
		return h[i].bound < h[k].bound
	}
	return h[i].seq < h[k].seq
}

func (h dueHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].dueIdx = i
	h[k].dueIdx = k
}

// Push appends a *trainJob; use heap.Push.
func (h *dueHeap) Push(x any) {
	j := x.(*trainJob)
	j.dueIdx = len(*h)
	*h = append(*h, j)
}

// Pop removes the last job and returns it as a *trainJob; use heap.Pop.
func (h *dueHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	j.dueIdx = -1
	return j
}
