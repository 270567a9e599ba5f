package core

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// trainJob is one dispatched client round: which client, which round, and
// which global model to start from. The shard worker fills update and
// flops, then signals done (buffered, one token per dispatch — signalled
// rather than closed so a job from the free list re-arms). The scheduling
// fields (finish, seq, heapIdx) are the event loop's.
type trainJob struct {
	c     *Client
	round int
	// global is what the client trains from, read-only for the job's
	// whole life: s.global itself behind the lock-step gate (a round
	// aggregates only once every job has joined), the vector of gsnap —
	// the model version's shared snapshot, owned by the event loop —
	// otherwise, nil when that snapshot is the version's float32 image
	// (gsnap.img, globalSnap).
	global []float64
	gsnap  *globalSnap
	// update is what the job uploads. A sparse one's patch is the run's
	// (patchStore), taken at its compaction; it points at its version
	// (update.base or base32), and the job keeps that version, and
	// gsnap's reference, until the round that merges it is done.
	update Update
	flops  int64
	done   chan struct{}
	task   func(worker int) // sp.run(j, worker), what submit queues

	// finish is the virtual arrival time: the dispatch bound until the
	// job trains (bound), then its priced arrival (price).
	finish  float64
	seq     int // dispatch order, tie-break for equal arrival times
	heapIdx int // slot in the event loop's jobHeap (-1 when not queued)
	// drawn is the arrival the latency draw gave at dispatch, which the
	// device and network prices start from (the dispatch instant itself
	// on a device fleet); bound is the earliest arrival the job can have,
	// priced at dispatch from its analytic FLOPs and bytes (Server.bound),
	// and dueIdx its slot in the loop's dueHeap while it waits to train
	// (-1 otherwise).
	drawn, bound float64
	dueIdx       int
	// remaining is the unserved portion of the job's transfer when its
	// client dropped mid-flight: the churn process parks the job (finish
	// = +Inf) and restores finish = rejoin + remaining at the rejoin,
	// reproducing the old "defer the arrival past the rejoin" semantics
	// without per-client scheduling state. Zero when not parked.
	remaining float64

	// Device-heterogeneity dispatch parameters (zero when no device
	// fleet is configured): steps caps the client's local mini-batch
	// steps this round, speed is its compute multiplier.
	steps int
	speed float64
	// This dispatch's wire traffic (filled by the shard worker alongside
	// update): the bytes the transport returned, the analytic dense
	// float32 size without one. The network pricer turns them into
	// transfer time.
	downBytes, upBytes int64
	// training marks a job handed to a shard and not yet joined, trained
	// one the event loop joined and priced: a job neither has not trained
	// and waits in the dueHeap. dropped marks an in-flight update lost to
	// a permanent client drop — its arrival is discarded, not merged.
	training, trained bool
	dropped           bool

	// Lazy rows (lazyrows.go): record marks a participation whose rows
	// become the newest link of the client's chain; chain is that chain,
	// copied oldest first at dispatch, which the job replays before the
	// client trains, and head the place of its newest link. recRng is the
	// client's stream position before it trained, and recRows how many
	// rows the method wrote.
	record  bool
	chain   []rowRecipe
	head    int32
	recRows int32
	recRng  prng.State
}

// shardPool runs client training on a bounded set of worker shards, one
// training engine per shard. Both runtimes submit trainJobs to it; the
// number of simultaneously *simulated* clients (async Concurrency) is
// decoupled from the number of engines actually allocated, which is what
// bounds memory at 10k+ clients: jobs queue up behind the shards and each
// shard reuses its engine across every client it serves.
type shardPool struct {
	s    *Server
	pool *parallel.Pool
	// engines[w] belongs exclusively to worker w (built on first use, so a
	// 4-client round on an 8-shard pool allocates 4 engines, not 8).
	engines []*engine
	// closed is set by close: no worker is left, and a job submitted
	// afterwards (a snapshot of a closed run trains what waits) runs on
	// the caller's goroutine, on shard 0's engine.
	closed bool
}

// newShardPool starts the worker shards. shards <= 0 selects the default
// (one per available CPU). The count is clamped to the population and to
// maxJobs, the most jobs the caller will ever have in flight at once
// (ClientsPerRound for the lock-step loops, Concurrency for the buffered
// one): the FIFO queue spreads work over every worker over time, so any
// shard beyond the concurrent-job bound would still lazily build a
// model-sized engine it can never use productively.
func newShardPool(s *Server, shards, maxJobs int) *shardPool {
	if shards <= 0 {
		shards = parallel.Workers()
	}
	if shards > len(s.clients) {
		shards = len(s.clients)
	}
	if maxJobs > 0 && shards > maxJobs {
		shards = maxJobs
	}
	return &shardPool{
		s:       s,
		pool:    parallel.NewPool(shards),
		engines: make([]*engine, shards),
	}
}

// patched reports whether j's upload is held as a patch, of indices or a
// bitmap, against its global.
func (j *trainJob) patched() bool { return j.update.patch != nil || j.update.bitmap != nil }

// submit queues one client round. The job's done channel is signalled
// when update and flops are valid. Submission order is preserved per worker
// but not across workers; determinism comes from each client's own RNG
// stream, not from scheduling order.
func (sp *shardPool) submit(j *trainJob) {
	if sp.closed {
		sp.run(j, 0)
		return
	}
	if j.task == nil {
		// Bound once per job object, which the run recycles: a
		// dispatch then costs no closure.
		j.task = func(w int) { sp.run(j, w) }
	}
	sp.pool.Submit(j.task)
}

// run trains one client round on shard w's engine and signals the job's
// done channel: the body of every job. Workers call it with their own
// index, and submit on a closed pool with shard 0, whose worker is gone;
// the loop takes the token back in the join that follows.
func (sp *shardPool) run(j *trainJob, w int) {
	eng := sp.engines[w]
	if eng == nil {
		e, err := newEngine(&sp.s.spec.Config, streamSeed(sp.s.spec.Seed, streamEngine, w))
		if err != nil {
			// The same spec already built the server's eval model, so this
			// is unreachable short of config mutation mid-run.
			panic(fmt.Sprintf("core: shard %d engine: %v", w, err))
		}
		sp.engines[w] = e
		eng = e
	}
	eng.attach(j.c)
	before := j.c.Counter.Total()
	sp.s.trainClient(j)
	j.flops = j.c.Counter.Total() - before
	eng.detach(j.c)
	j.done <- struct{}{}
}

// close waits for every submitted job and releases the shards.
func (sp *shardPool) close() {
	sp.pool.Close()
	sp.closed = true
}
