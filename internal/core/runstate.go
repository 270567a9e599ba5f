// RunState: the steppable form of a federated run, and the only way to
// execute one.
//
// Checkpoint/resume and the run-server need finer control than
// start-to-finish: advance exactly one round, observe the live metrics at
// the boundary, serialize the whole run, stop, and later continue
// bit-for-bit in a fresh process. RunState is that control surface. Each
// loop is a runner — a struct holding the loop's state (event heap,
// merge buffer) with a step() method that executes exactly one
// round/aggregation — and RunState fronts the two runners with one
// facade:
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

	"repro/internal/tensor"
)

// runner is one loop's stepping engine. step executes exactly one round
// (barrier) or one buffered aggregation (async) and reports whether the
// run is complete. Between step calls the run is at a round boundary: no
// merge in progress, metrics recorded through the last completed round.
// quiesce additionally joins any in-flight local training so the entire
// state is serializable; snapBody walks the loop-specific live state in
// either direction (everything else — global model, clients, recorder,
// clock, scheduler registry — is handled by RunState). close returns what
// the loop still has checked out of paramsPool on the run's behalf.
type runner interface {
	step() (done bool, err error)
	quiesce()
	snapBody(c *tensor.Codec)
	close()
}

// RunState is a federated run that can be advanced one round at a time,
// serialized at any round boundary (Snapshot), and reconstructed in a
// fresh process (Resume). It is not safe for concurrent use: Step,
// Snapshot, and the accessors must all be called from one goroutine
// (the run-server serializes HTTP access onto the step loop).
type RunState struct {
	spec   RunSpec
	a      *AsyncServer
	run    runner
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

// newRunState builds the runtime from a validated spec. The lock-step
// runtimes (sync, barrier) share the barrier runner: a sync spec is a
// barrier spec whose latency Validate pinned to zero.
func newRunState(spec RunSpec) (*RunState, error) {
	buffered := spec.Runtime == RuntimeAsync
	maxJobs := spec.ClientsPerRound
	if buffered {
		maxJobs = spec.Concurrency
	}
	a, err := newAsyncServer(spec, maxJobs)
	if err != nil {
		return nil, err
	}
	rs := &RunState{spec: spec, a: a, run: barrierRunner{a}}
	if buffered {
		rs.run = newBufferedRunner(a)
	}
	return rs, nil
}

// Spec returns the resolved run specification (defaults filled, policy
// resolved).
func (rs *RunState) Spec() *RunSpec { return &rs.spec }

// Server exposes the underlying server (global model, clients,
// evaluation) for hooks and status reporting. Only touch it at round
// boundaries.
func (rs *RunState) Server() *Server { return rs.a.s }

// Result returns the live, partially-filled Result. It is owned by the
// run: read it only at round boundaries, and treat it as read-only.
// Finish returns the completed version.
func (rs *RunState) Result() *Result { return rs.a.rec.res }

// Round returns the number of completed rounds (buffered aggregations in
// the async runtime).
func (rs *RunState) Round() int { return rs.a.rec.res.Rounds }

// Done reports whether the run has completed (or errored).
func (rs *RunState) Done() bool { return rs.done }

// LastAccuracy returns the latest known test accuracy (0 until the first
// evaluation completes). Unlike Result().Accuracy, which is assembled at
// Finish, it is live during the run — the run-server's /status reads it.
func (rs *RunState) LastAccuracy() float64 { return rs.a.rec.lastAcc }

// Now returns the virtual clock in simulated seconds (0 throughout a run
// nothing prices).
func (rs *RunState) Now() float64 { return rs.a.now }

// Offline reports how many clients are currently offline or permanently
// dropped (0 without a churn process).
func (rs *RunState) Offline() int {
	if rs.a.churn == nil {
		return 0
	}
	return rs.a.churn.offlineCount()
}

// Participation reports how many distinct clients have been dispatched at
// least once and the total number of dispatches — the fleet-coverage
// statistics of the population registry.
func (rs *RunState) Participation() (distinct int, dispatches int64) {
	return rs.a.pop.participants()
}

// PerClientStateBytes reports the runtime's deterministic per-client
// bookkeeping footprint in bytes: the scheduler registry (dispatch
// counter plus idle-set entry), the buffered runtime's event-heap
// client→slot map, the aggregate churn permutation, the fault assignment
// (plus the noise adversary's stream pointers when derived), and the
// client objects themselves (slice entry, struct, sample indices). Lazily
// allocated training state — per-client RNGs and the method's State rows
// (Client.StateBytes) — is excluded: it scales with participation, not
// with population. The number is a pure function of the spec, which
// is what lets tier-1 pin it exactly (TestPopulationCounters, B/client).
func (rs *RunState) PerClientStateBytes() float64 {
	a := rs.a
	n := len(a.s.clients)
	if n == 0 {
		return 0
	}
	// Registry: dispatches + idle ids + idle pos (int32 each).
	total := int64(n) * (4 + 4 + 4)
	if _, buffered := rs.run.(*bufferedRunner); buffered {
		// The event heap's slot map; the lock-step runner keeps no heap.
		total += int64(n) * 4
	}
	if a.churn != nil {
		// Aggregate churn: the segment permutation and its inverse.
		total += int64(n) * 8
	}
	if a.s.faults != nil {
		total += int64(n) // fault class byte
		if a.s.advRng != nil {
			total += int64(n) * 8 // noise-stream pointer
		}
	}
	total += int64(n) * int64(8+unsafe.Sizeof(Client{}))
	for _, c := range a.s.clients {
		total += int64(8 * cap(c.Indices))
	}
	return float64(total) / float64(n)
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
			return rs.a.rec.res, err
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
	return rs.a.rec.finish()
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
	rs.a.sp.close()
	rs.run.close()
	rs.a.rec.finalize()
}
