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

import "unsafe"

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

// Footprint is what a run's client registry holds: the run state that
// grows with the population rather than with participation.
type Footprint struct {
	// Clients is the population; Built how many of its clients the run
	// has built, each at its first dispatch (or for a snapshot's record
	// of it, or Server.Clients).
	Clients, Built int
	// RegistryBytes sums, from lengths and capacities, the scheduler
	// registry (dispatch counts and the idle set), the event heap's
	// client-to-slot map, the aggregate churn permutation and its
	// inverse, the fault classes and the noise-stream slots, the slot
	// slice of client pointers, and the slab cells built clients occupy
	// (a Client and its FLOP meter each, whole chunks). What a built
	// client holds beyond its cell — its stream, the method's rows, an
	// error-feedback row — scales with participation and is left out, as
	// are the sample indices, which the spec's partition owns.
	RegistryBytes int64
}

// Footprint reports the client registry's size. Before the first step,
// when no client is built, RegistryBytes is an exact function of the
// spec, a whole number of bytes per client.
func (rs *RunState) Footprint() Footprint {
	s := rs.s
	b := 4 * int64(cap(s.pop.dispatches)+cap(s.pop.idle.ids)+cap(s.pop.idle.pos)+cap(rs.run.inflight.slot))
	if ch := s.churn; ch != nil {
		b += 4 * int64(cap(ch.order)+cap(ch.pos))
	}
	b += int64(cap(s.faults)) + 8*int64(cap(s.advRng)+cap(s.clients))
	b += int64(s.slab.cells) * int64(unsafe.Sizeof(clientCell{}))
	return Footprint{Clients: len(s.clients), Built: s.slab.built, RegistryBytes: b}
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
	rs.s.rec.finalize()
}
