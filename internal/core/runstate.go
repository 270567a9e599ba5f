// RunState: the steppable form of a federated run, and the only way to
// execute one.
//
// Checkpoint/resume and the run-server need finer control than
// start-to-finish: advance exactly one round, observe the live metrics at
// the boundary, serialize the whole run, stop, and later continue
// bit-for-bit in a fresh process. RunState is that control surface over
// one run object, the Server, which holds the resolved RunSpec and all
// the runtime state (model, clients, clock, scheduler registry, recorder,
// shard pool, job free list, churn), and over the one event loop every
// runtime steps — the lock-step ones behind its dispatch gate — whose
// step() executes exactly one round/aggregation:
//
//	rs, _ := core.NewRunState(spec)
//	for {
//		done, err := rs.Step()       // one round
//		...
//		rs.Snapshot(w)               // serializable at every boundary
//		if done { break }
//	}
//	res := rs.Finish()
//
// Start(spec) is NewRunState + Run.
package core

import (
	"unsafe"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// RunState is a federated run that can be advanced one round at a time,
// serialized at any round boundary (Snapshot), and reconstructed in a
// fresh process (Resume). It is the run's Server — which holds the
// resolved spec and every piece of shared runtime state — plus the event
// loop that steps it. Between steps the run is at a round boundary: no
// merge in progress, metrics recorded through the last completed round.
// It is not safe for concurrent use: Step, Snapshot, and the accessors
// must all be called from one goroutine (the run-server serializes HTTP
// access onto the step loop).
type RunState struct {
	s      *Server
	run    *bufferedRunner
	done   bool
	closed bool
}

// NewRunState validates the spec and builds the run at round 0, training
// nothing yet. The caller must eventually call Close (Run does so
// itself).
func NewRunState(spec RunSpec) (*RunState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newRunState(spec)
}

// newRunState builds the run from a validated spec. The lock-step
// runtimes (sync, barrier) run the event loop behind its dispatch gate: a
// sync spec is a barrier spec whose latency Validate pinned to zero.
func newRunState(spec RunSpec) (*RunState, error) {
	s, err := newServer(spec)
	if err != nil {
		return nil, err
	}
	s.installFaults()
	s.rec = newRecorder(s)
	// The most jobs the loop ever has in flight at once bounds the shard
	// pool. Closing the pool joins every submitted job, so training
	// goroutines never outlive the run: they hold client state and the
	// transport.
	maxJobs := spec.Concurrency
	if spec.Runtime != RuntimeAsync {
		maxJobs = spec.ClientsPerRound
	}
	s.sp = newShardPool(s, spec.Shards, maxJobs)
	s.latRng = seedStream(spec.Seed, streamLatency)
	s.pop = newPopulation(len(s.clients))
	if spec.Churn != nil {
		s.churn = newChurn(len(s.clients), spec.Churn, spec.Seed)
	}
	r := newBufferedRunner(s)
	s.rows.run, s.rows.coder = r, coderOf(s.wire)
	s.rows.on = lazyRows(&s.spec) && (s.wire == nil || s.rows.coder != nil)
	if s.wire == nil && (spec.Runtime != RuntimeAsync || s.rows.on) {
		// Uploads over no transport may be held as bitmap patches behind
		// the lock-step gate or when a recipe pins their version
		// (Server.bitmapped): at most as many as the loop holds uploads
		// at once, in flight and buffered, built a merge's worth at a
		// time as the run first takes them.
		slab, held := spec.ClientsPerRound, spec.ClientsPerRound
		if spec.Runtime == RuntimeAsync {
			slab, held = spec.Policy.k, spec.Concurrency+spec.Policy.k
		}
		s.chunks = newChunkStore(len(s.global), slab, held)
	}
	return &RunState{s: s, run: r}, nil
}

// Spec returns the resolved run specification (defaults filled, policy
// resolved).
func (rs *RunState) Spec() *RunSpec { return &rs.s.spec }

// Server exposes the underlying server (global model, clients,
// evaluation) for hooks and status reporting. Only touch it at round
// boundaries.
func (rs *RunState) Server() *Server { return rs.s }

// Result returns the live, partially-filled Result. It is owned by the
// run: read it only at round boundaries, and treat it as read-only.
// Finish returns the completed version.
func (rs *RunState) Result() *Result { return rs.s.rec.res }

// Round returns the number of completed rounds (buffered aggregations in
// the async runtime).
func (rs *RunState) Round() int { return rs.s.rec.res.Rounds }

// Done reports whether the run has completed (or errored).
func (rs *RunState) Done() bool { return rs.done }

// LastAccuracy returns the latest known test accuracy (0 until the first
// evaluation completes). Unlike Result().Accuracy, which is assembled at
// Finish, it is live during the run — the run-server's /status reads it.
func (rs *RunState) LastAccuracy() float64 { return rs.s.rec.lastAcc }

// Now returns the virtual clock in simulated seconds (0 throughout a run
// nothing prices).
func (rs *RunState) Now() float64 { return rs.s.now }

// Offline reports how many clients are currently offline or permanently
// dropped (0 without a churn process).
func (rs *RunState) Offline() int {
	if rs.s.churn == nil {
		return 0
	}
	return rs.s.churn.offlineCount()
}

// Participation reports how many distinct clients have been dispatched at
// least once and the total number of dispatches — the fleet-coverage
// statistics of the population registry.
func (rs *RunState) Participation() (distinct int, dispatches int64) {
	return rs.s.pop.participants()
}

// Footprint is what a run holds, by owner, summed from lengths and
// capacities: its client registry, the uploads it holds, the model
// versions it holds, the pools' free lists, its model instances, and the
// server's and the transport's scratch.
type Footprint struct {
	// Clients is the population; Built how many of its clients the run
	// has built, each at its first dispatch (or for a snapshot's record
	// of it, or Server.Clients).
	Clients, Built int
	// RegistryBytes sums, from lengths and capacities, the scheduler
	// registry (dispatch counts and the idle set), the event heap's
	// client-to-slot map, the aggregate churn permutation and its
	// inverse, the fault classes, the slot slice of client pointers, and
	// the slab cells built clients occupy (a Client, its stream inside
	// it, and its FLOP meter each, whole chunks). What a built client
	// holds beyond its cell — the method's rows, an error-feedback row —
	// scales with participation and is left out, as are the sample
	// indices, which the spec's partition owns.
	RegistryBytes int64
	// Waiting and Trained count the jobs in flight by state: waiting to
	// train, holding their version and no upload, or trained, holding
	// their upload until they arrive.
	Waiting, Trained int
	// The uploads in flight and in the policy buffer, by the form each
	// is held in: a dense float64 vector, a float32 narrowing, a patch of
	// indices and values against its version (its job's storage), or a
	// bitmap patch (its bitmap and the whole chunks of its values).
	Dense, Narrowed, IndexPatches, BitmapPatches Held
	// Versions64 and Versions32 are the model versions the run holds, a
	// float64 copy of the global or the float32 image a float32
	// downlink delivers: the current one, those jobs still train from or
	// hold patches against, and those recipes pin. A float32 version is
	// a table of blocks of 512 entries that it shares with the others
	// wherever their bits are the same: Blocks32 counts the distinct
	// blocks they hold, and Versions32's bytes are those blocks, each
	// once, and the versions' tables.
	Versions64, Versions32 Held
	Blocks32               int
	// Free64 and Free32 are the free lists of the float64 and float32
	// vector pools, the process's, shared by every run in it: what they
	// hold is what the runs so far checked out at once. FreeChunks is
	// what the run's bitmap patches are made of and no upload holds: its
	// free chunks, carved from float64 vectors of the pool, and its free
	// patches (their bitmaps and chunk tables). FreeBlocks are the
	// run's float32 version blocks no version holds.
	Free64, Free32, FreeChunks, FreeBlocks Held
	// Engines are the training engines the run has built — one per shard
	// that has trained a client, and the server's loaner once a client
	// borrowed it — with the scratch models a method built on them;
	// Tester is the evaluator's model and batch.
	Engines, Tester Models
	// ServerScratch is the server's merge-side scratch: the vector it
	// widens a float32 version into (Server.hold, Snapshot) and what the
	// robust merges read, sort and aggregate in. TransportScratch is what
	// the transport keeps between uploads, read through its HeldBytes
	// method (comm's Transport has one); 0 for a transport without it.
	ServerScratch, TransportScratch int64
}

// heldBytes is an optional transport capability: the bytes it keeps
// between transfers, read when no transfer runs.
type heldBytes interface{ HeldBytes() int64 }

// Models is what a set of model instances holds, from capacities: N
// owners (engines, or the tester), their models' parameter and gradient
// vectors, their optimizers' state, the activations their layers keep
// between passes, and scratch — the layers' convolution scratch
// (nn.Model.HeldBytes) and the owner's batch, label, permutation,
// downlink and row buffers.
type Models struct {
	N                                       int
	Params, Optimizer, Activations, Scratch int64
}

func (ms *Models) model(m *nn.Model) {
	if m == nil {
		return
	}
	ms.Params += 8 * int64(cap(m.Params())+cap(m.Grads()))
	a, s := m.HeldBytes()
	ms.Activations += a
	ms.Scratch += s
}

func (ms *Models) tensors(ts ...*tensor.Tensor) {
	for _, t := range ts {
		if t != nil {
			ms.Scratch += 8 * int64(cap(t.Data))
		}
	}
}

// engine adds e to ms.
func (ms *Models) engine(e *engine) {
	if e == nil {
		return
	}
	ms.N++
	ms.model(e.model)
	ms.model(e.scratchA)
	ms.model(e.scratchB)
	ms.Optimizer += e.opt.HeldBytes()
	ms.tensors(e.batchX, e.dLogits, e.featGrad)
	ms.Scratch += 8 * int64(cap(e.batchY)+cap(e.perm)+cap(e.idx)+cap(e.fgSaved)+cap(e.downlink)+cap(e.rowScratch)+cap(e.residRow))
}

// tester adds t to ms, once no evaluation holds it.
func (ms *Models) tester(t *tester) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms.N++
	ms.model(t.model)
	ms.tensors(t.x)
	ms.Scratch += 8 * int64(cap(t.idx)+cap(t.labels))
}

// Held is what one owner holds: how many objects, and their bytes.
type Held struct {
	N     int
	Bytes int64
}

func (h *Held) add(bytes int) {
	h.N++
	h.Bytes += int64(bytes)
}

// Footprint reports what the run holds. It joins the jobs a shard is
// training first, so their uploads can be read — none at a round
// boundary — and trains none that waits. Before the first step, when no
// client is built, RegistryBytes is an exact function of the spec, a
// whole number of bytes per client.
func (rs *RunState) Footprint() Footprint {
	s, r := rs.s, rs.run
	r.joinTraining()
	b := 4 * int64(cap(s.pop.dispatches)+cap(s.pop.idle.ids)+cap(s.pop.idle.pos)+cap(r.inflight.slot))
	if ch := s.churn; ch != nil {
		b += 4 * int64(cap(ch.order)+cap(ch.pos))
	}
	b += int64(cap(s.faults)) + 8*int64(cap(s.clients))
	b += int64(s.slab.cells) * int64(unsafe.Sizeof(clientCell{}))
	fp := Footprint{Clients: len(s.clients), Built: s.slab.built, RegistryBytes: b, Waiting: r.due.Len()}
	fp.Trained = r.inflight.Len() - fp.Waiting
	for _, js := range [][]*trainJob{r.inflight.js, r.buffer} {
		for _, j := range js {
			switch u := &j.update; {
			case u.Params != nil:
				fp.Dense.add(8 * cap(u.Params))
			case u.narrow != nil:
				fp.Narrowed.add(4 * cap(u.narrow))
			case u.patch != nil:
				fp.IndexPatches.add(4*cap(u.patch.idx) + 8*cap(u.patch.val))
			case u.bitmap != nil:
				fp.BitmapPatches.add(8 * (cap(u.bitmap.bits) + chunkLen*len(u.bitmap.vals)))
			}
		}
	}
	for _, sn := range r.snaps {
		if sn.vec != nil {
			fp.Versions64.add(8 * cap(sn.vec))
		}
	}
	fp.Versions32, fp.Blocks32, fp.FreeBlocks = s.versions.footprint(r.snaps)
	fp.Free64 = paramsPool.held()
	fp.Free32 = narrowPool.held()
	if s.chunks != nil {
		fp.FreeChunks = s.chunks.held()
	}
	for _, e := range s.sp.engines {
		fp.Engines.engine(e)
	}
	fp.Engines.engine(s.loan.eng)
	fp.Tester.tester(s.eval)
	fp.ServerScratch = s.scratchBytes()
	if h, ok := s.spec.Transport.(heldBytes); ok {
		fp.TransportScratch = h.HeldBytes()
	}
	return fp
}

// Step advances the run by one round (one buffered aggregation in the
// async runtime) and reports whether the run is complete. Calling Step
// on a completed run is a no-op returning true.
func (rs *RunState) Step() (bool, error) {
	if rs.done {
		return true, nil
	}
	done, err := rs.run.step()
	if done || err != nil {
		rs.done = true
	}
	return done, err
}

// Run drives the remaining rounds to completion and closes the run. On a
// divergence error the partially-filled Result is returned alongside the
// error.
func (rs *RunState) Run() (*Result, error) {
	// Close is deferred so the evaluator goroutine and the shard pool are
	// released even when a user callback or algorithm panics; finalize
	// (inside Close) is idempotent and keeps partial results well-formed.
	defer rs.Close()
	for {
		done, err := rs.Step()
		if err != nil {
			return rs.s.rec.res, err
		}
		if done {
			return rs.Finish(), nil
		}
	}
}

// Finish completes the run's bookkeeping (joining every pending
// evaluation) and returns the Result. Idempotent.
func (rs *RunState) Finish() *Result {
	rs.done = true
	return rs.s.rec.finish()
}

// Close releases the run's resources: the shard pool's workers and the
// evaluator goroutine. Idempotent; safe to call on a half-finished run
// (the Result stays readable, Snapshot stays possible — worker tokens
// for joined jobs survive the pool).
func (rs *RunState) Close() {
	if rs.closed {
		return
	}
	rs.closed = true
	rs.s.sp.close()
	rs.run.close()
	if rs.s.chunks != nil {
		rs.s.chunks.close()
	}
	rs.s.rec.finalize()
}
