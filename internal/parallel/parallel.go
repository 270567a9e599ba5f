// Package parallel provides the two data-parallel building blocks of the
// library: a bounded worker pool, which trains a run's shards (the run's
// only parallelism — a shard's kernels run on its own goroutine), and a
// parallel for over an index range with static chunking, which the
// synthetic-corpus generator and t-SNE use. Both size themselves from
// GOMAXPROCS so the library scales with the machine without configuration.
package parallel

import (
	"runtime"
	"sync"
)

// minParallelWork is the smallest index range For splits across
// goroutines; below it the scheduling overhead dominates.
const minParallelWork = 256

// Workers returns the degree of parallelism used by For and ForChunkedMin,
// and the default number of training shards.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) using up to Workers() goroutines.
// Iterations must be independent. Small ranges run inline on the caller's
// goroutine.
func For(n int, fn func(i int)) {
	ForChunkedMin(n, minParallelWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunkedMin splits [0, n) into contiguous chunks and runs fn(lo, hi)
// for each chunk, using up to Workers() goroutines; ranges smaller than
// minWork run inline. Chunked form lets a body amortise per-iteration
// overhead, and callers whose per-index work is heavy (a block of the
// synthetic corpus) pass a small threshold.
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
