// Package parallel provides small data-parallel building blocks used by the
// tensor kernels and by the federated-learning server to train selected
// clients concurrently.
//
// The helpers are deliberately simple: a parallel for over an index range
// with static chunking, and a bounded worker pool. Both size themselves from
// GOMAXPROCS so the library scales with the machine without configuration.
package parallel

import (
	"runtime"
	"sync"
)

// DefaultMinWork is the smallest index range worth splitting across
// goroutines; below it the scheduling overhead dominates. It is exported
// so hot paths can ask Serial whether ForChunked would run inline and, if
// so, call their chunk body directly without allocating a closure.
const DefaultMinWork = 256

const minParallelWork = DefaultMinWork

// Workers returns the degree of parallelism used by For and ForChunked.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) using up to Workers() goroutines.
// Iterations must be independent. Small ranges run inline on the caller's
// goroutine.
func For(n int, fn func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and runs fn(lo, hi) for
// each chunk, using up to Workers() goroutines. Chunked form lets kernels
// amortise per-iteration overhead (index math, bounds hoisting).
func ForChunked(n int, fn func(lo, hi int)) {
	ForChunkedMin(n, minParallelWork, fn)
}

// Serial reports whether ForChunkedMin(n, minWork, ...) would run inline on
// the caller's goroutine. Hot paths use it to call their chunk body
// directly in the serial case, so the closure they would otherwise hand to
// ForChunked never escapes to the heap.
func Serial(n, minWork int) bool {
	return Workers() <= 1 || n < minWork
}

// ForChunkedMin is ForChunked with an explicit parallelism threshold:
// ranges smaller than minWork run inline. Kernels whose per-index work is
// much heavier than a scalar op (e.g. a GEMM row tile) pass a smaller
// threshold than the package default.
func ForChunkedMin(n, minWork int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Workers()
	if p <= 1 || n < minWork {
		fn(0, n)
		return
	}
	if p > n {
		p = n
	}
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Map applies fn to every index in [0, n) and collects the results in
// order. It is a convenience wrapper over For for fan-out/fan-in patterns
// such as "evaluate every client's model".
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Pool is a persistent bounded worker pool: it keeps its workers alive
// across many Submit calls, and each submitted task learns which worker
// runs it. That worker
// index is the hook for sharded state: a caller can keep one expensive
// resource per worker (the FL core keeps one training engine — model,
// optimizer, batch buffers — per shard) and access it without locking,
// because a worker executes its tasks sequentially.
type Pool struct {
	tasks chan func(worker int)
	wg    sync.WaitGroup
	size  int
}

// NewPool starts a pool with the given number of workers (values < 1 are
// clamped to 1). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		// A small queue decouples submitters from workers; Submit blocks
		// once it fills, which bounds in-flight memory.
		tasks: make(chan func(worker int), 2*workers),
		size:  workers,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn(w)
			}
		}(w)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Submit enqueues one task. It blocks while the queue is full (bounded
// backpressure) and must not be called after Close. The worker index passed
// to fn is in [0, Size()).
func (p *Pool) Submit(fn func(worker int)) {
	p.tasks <- fn
}

// Close waits for every submitted task to finish and releases the workers.
// The pool cannot be reused afterwards.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
