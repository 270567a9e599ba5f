package core

import (
	"container/heap"
	"fmt"
)

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
// rejoins. The order is strict (seq is unique), so the sift is the only
// one possible and the array layout a snapshot serializes is fixed.

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

// heapOrder keeps, for a run whose dispatch bounds are not exact (see
// bufferedRunner.order), the event heap as it would be laid out had
// every job entered it at its priced arrival when it was dispatched: the
// layout a snapshot writes, so that its bytes do not depend on when a job
// trained. Every push, pop and key change of the event heap is logged in
// order, by value, and applied to this heap as soon as every push before
// it knows its priced arrival (priced). Its keys are copies: a logged
// job may have merged and gone back to the free list by the time its
// pop is applied.
type heapOrder struct {
	h orderHeap
	// ops are the logged operations not yet applied, oldest first; base
	// is how many were applied before ops[0].
	ops  []orderOp
	base int
}

type orderEnt struct {
	finish  float64
	seq, id int
	j       *trainJob
}

type orderOp struct {
	orderEnt
	kind  uint8 // opPush, opPop or opFix
	ready bool  // a push whose priced arrival is known
}

const (
	opPush uint8 = iota
	opPop
	opFix
)

// push logs j's entry into the event heap; its key is filled in when j
// is priced, and j remembers where (pushOp).
func (o *heapOrder) push(j *trainJob) {
	j.pushOp = o.base + len(o.ops)
	o.ops = append(o.ops, orderOp{orderEnt: orderEnt{seq: j.seq, id: j.c.ID, j: j}, kind: opPush}) //fedtripvet:allow the log grows to the operations one flight spans, then is reused
}

// priced fills in the key of j's logged push and applies what it unblocks.
func (o *heapOrder) priced(j *trainJob) {
	op := &o.ops[j.pushOp-o.base]
	op.finish, op.ready = j.finish, true
	o.drain()
}

// pop logs the removal of j, the event heap's earliest job.
func (o *heapOrder) pop(j *trainJob) {
	o.ops = append(o.ops, orderOp{orderEnt: orderEnt{seq: j.seq, id: j.c.ID}, kind: opPop}) //fedtripvet:allow the log grows to the operations one flight spans, then is reused
	o.drain()
}

// fix logs j's key change (a park, an unpark).
func (o *heapOrder) fix(j *trainJob) {
	o.ops = append(o.ops, orderOp{orderEnt: orderEnt{finish: j.finish, seq: j.seq, id: j.c.ID}, kind: opFix}) //fedtripvet:allow the log grows to the operations one flight spans, then is reused
	o.drain()
}

// drain applies the logged operations up to the first push whose key is
// not known yet. container/heap's sifts on both heaps keep the layouts
// the same.
func (o *heapOrder) drain() {
	n := 0
	for ; n < len(o.ops); n++ {
		op := &o.ops[n]
		if op.kind == opPush && !op.ready {
			break
		}
		switch op.kind {
		case opPush:
			o.h = append(o.h, op.orderEnt) //fedtripvet:allow grows to the most jobs in flight at once
			heap.Fix(&o.h, len(o.h)-1)
		case opPop:
			if top := o.h[0]; top.seq != op.seq || top.id != op.id {
				panic(fmt.Sprintf("core: the logged event heap pops client %d, the event loop client %d", top.id, op.id))
			}
			heap.Pop(&o.h)
		case opFix:
			for i := range o.h {
				if o.h[i].seq == op.seq && o.h[i].id == op.id {
					o.h[i].finish = op.finish
					heap.Fix(&o.h, i)
					break
				}
			}
		}
	}
	if n > 0 {
		o.ops = o.ops[:copy(o.ops, o.ops[n:])]
		o.base += n
	}
}

// jobs is the event heap's layout once every push is applied, the jobs
// in array order, in dst's storage.
func (o *heapOrder) jobs(dst []*trainJob) []*trainJob {
	if len(o.ops) != 0 {
		panic("core: the event heap's layout is read with a push not priced")
	}
	dst = dst[:0]
	for _, e := range o.h {
		dst = append(dst, e.j)
	}
	return dst
}

// reset makes js, a valid event heap of priced jobs, the layout.
func (o *heapOrder) reset(js []*trainJob) {
	o.h, o.ops = o.h[:0], o.ops[:0]
	for _, j := range js {
		o.h = append(o.h, orderEnt{finish: j.finish, seq: j.seq, id: j.c.ID, j: j})
	}
}

// orderHeap is heapOrder's applied heap, ordered as jobLess orders jobs.
// Its Push is never called with a value (drain appends, then sifts), and
// its Pop returns nothing, so no entry is boxed.
type orderHeap []orderEnt

func (h orderHeap) Len() int { return len(h) }

func (h orderHeap) Less(i, k int) bool {
	a, b := &h[i], &h[k]
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.id < b.id
}

func (h orderHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }

func (h *orderHeap) Push(any) { panic("core: orderHeap.Push") }

func (h *orderHeap) Pop() any {
	*h = (*h)[:len(*h)-1]
	return nil
}
