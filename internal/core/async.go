// The simulated-clock federated runtime: the lock-step barrier loop and
// the asynchronous, staleness-aware buffered loop.
//
// The barrier loop is the paper's: select K clients, wait for all of
// them, aggregate. Under heterogeneous client speeds every round costs
// the straggler's latency (at ZeroLatency the clock never moves — that is
// RuntimeSync). The buffered loop instead keeps a fixed number of clients
// training at all times and aggregates every BufferSize arrivals
// (FedBuff-style buffered async), discounting each merged update by its
// staleness — the number of aggregations the server completed while the
// update was in flight.
//
// Time is simulated: a LatencyModel assigns each dispatch a virtual
// duration, and the event loop processes arrivals in virtual-time order
// (ties broken by dispatch order, so runs are deterministic). Local
// training itself really executes — on the bounded shard pool, one
// training engine per shard — which is what the throughput benchmarks
// measure; only the clock is virtual.
//
// The loop is built to survive populations of 100k–1M clients:
//
//   - In-flight jobs sit in an indexed min-heap keyed on (finish, seq), so
//     finding the next arrival is O(log M) instead of a linear scan.
//   - Idle clients live in the population registry's O(1) uniform-pick
//     set, so dispatch never scans the fleet.
//   - The number of *simulated* in-flight clients (Concurrency) is
//     decoupled from the number of training engines (Config.Shards):
//     thousands of virtual dispatches queue behind a handful of engines,
//     keeping memory O(shards * |w|), not O(population * |w|).
//   - Derivable per-client values — latency bases, device speeds, network
//     profiles, fault classes — are regenerated on demand from seed
//     streams keyed by client ID (one scratch-RNG reseed per lookup), so
//     no fleet-wide float or profile array exists at all; availability
//     runs as an aggregate sampled process (device.go) with O(1) clock
//     state instead of one Markov chain per client.
//   - trainJobs are pooled and the event heap tracks clients by int32
//     slot index, so steady-state event processing allocates nothing and
//     GC scan cost stops growing with the population.
//   - The global model is copied once per model version, not once per
//     dispatch: every job dispatched between two aggregations trains from
//     the same immutable, reference-counted snapshot, so the copies alive
//     follow the versions in flight rather than Concurrency.
//   - Where a burst must be joined before the clock can move (device- and
//     network-priced arrivals), a burst of one job — every burst but a
//     run's first, in steady state — trains on the event-loop goroutine
//     itself: no closure, no channel hand-off, no cross-thread wake-up
//     for a job the loop would only block on.
//   - Evaluation runs off the loop on the snapshot-based evaluator, so a
//     merge never stalls behind the test set.
//
// Staleness is exactly FedTrip's xi regime: a client dispatched for round
// d whose previous participation was round r trains with a genuine
// participation gap d-r, so the XiInverseGap schedule is exercised under
// real partial participation and stale uploads rather than the uniform
// gaps of lock-step rounds.
package core

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// PolyDiscount returns the polynomial staleness discount of the async FL
// literature (FedAsync/FedBuff): weight(s) = (1+s)^(-a). a = 0 disables
// discounting; a = 0.5 is the customary default. The discount at
// staleness 0 is exactly 1, which the barrier equivalence mode relies on.
// The rule remembers a, which is how "fedbuff:0.5" prints and what the
// snapshot fingerprint compares.
func PolyDiscount(a float64) Rule {
	return Rule{term: spec.T("poly", a), F: func(s int) float64 {
		if s <= 0 {
			return 1
		}
		return math.Pow(1+float64(s), -a)
	}}
}

// AsyncServer is the state every runtime shares on top of a Server: the
// virtual clock, the scheduler registry, the recorder (whose Result
// counts the completed rounds), and the shard pool. The two runners
// (barrier, buffered) differ only in how a round's updates are gathered;
// finishRound merges and records them for both.
type AsyncServer struct {
	s      *Server
	spec   RunSpec
	rec    *recorder
	sp     *shardPool
	latRng *prng.Rand
	now    float64
	pop    *population
	// flopsTotal is the cumulative metered training cost of every
	// processed arrival plus the lock-step PreRound passes.
	flopsTotal int64
	// derive is the scratch RNG behind stateless per-client derivation:
	// device speeds (spec.Devices) and link profiles (spec.Network) are
	// recomputed per dispatch/arrival by re-seeding it from the client's
	// indexed stream, instead of materializing fleet-wide arrays. Event-
	// loop-only (never touched by shard workers).
	derive prng.Rand
	// churn is the fleet availability process (nil without RunSpec.Churn).
	churn *churn
	// joinScratch gathers a join-at-dispatch burst before it is trained
	// and joined in dispatch order (event-loop scratch).
	joinScratch []*trainJob
}

// newAsyncServer builds the runtime from a validated spec (policy
// resolved, defaults filled). maxJobs is the most jobs the runner will
// ever have in flight at once; it bounds the shard pool.
func newAsyncServer(sp RunSpec, maxJobs int) (*AsyncServer, error) {
	s, err := NewServer(sp.Config)
	if err != nil {
		return nil, err
	}
	s.policy = sp.Policy
	s.installFaults(sp.Faults)
	a := &AsyncServer{
		s:    s,
		spec: sp,
		rec:  newRecorder(s),
		// Closing the pool joins every submitted job, so training
		// goroutines never outlive the run: they hold client state and
		// the transport.
		sp: newShardPool(s, s.cfg.Shards, maxJobs),
		// A dedicated latency source keeps the selection stream (s.rng)
		// independent of the latency model, so pricing a run never
		// changes who is selected.
		latRng: seedStream(sp.Seed, streamLatency),
		pop:    newPopulation(len(s.clients)),
	}
	if sp.Churn != nil {
		a.churn = newChurn(len(s.clients), sp.Churn, sp.Seed)
	}
	return a, nil
}

// finishRound is the tail of every round in both runners: merge the
// gathered updates, check for divergence, record the metrics, recycle the
// upload buffers, and report whether the run is complete.
//
//fedtripvet:hotpath
func (a *AsyncServer) finishRound(updates []Update) (bool, error) {
	s, cfg, res := a.s, &a.s.cfg, a.rec.res
	t := res.Rounds + 1
	if cfg.OnUpdates != nil {
		cfg.OnUpdates(t, s.global, updates)
	}
	s.aggregate(t, updates)
	if !tensor.AllFinite(s.global) {
		return true, fmt.Errorf("core: %s diverged at round %d (non-finite global model)", cfg.Algo.Name(), t) //fedtripvet:allow cold terminal error path
	}
	var staleSum float64
	for _, u := range updates {
		staleSum += float64(u.Staleness)
	}
	acc := a.rec.record(t, cfg.Rounds, updates, a.flopsTotal)
	// The merge and metrics have consumed this round's uploads; their
	// buffers go back to the pool for the next round's checkouts.
	recycleUpdates(updates)
	res.SimTimeByRound = append(res.SimTimeByRound, a.now)                                      //fedtripvet:allow per-round series, amortized growth over the run
	res.MeanStalenessByRound = append(res.MeanStalenessByRound, staleSum/float64(len(updates))) //fedtripvet:allow per-round series, amortized growth over the run
	if cfg.Logf != nil {
		cfg.Logf("round %3d/%d algo=%s acc=%.4f loss=%.4f gflops=%.2f t=%.1fs stale=%.2f", t, cfg.Rounds, cfg.Algo.Name(), acc, res.TrainLoss[t-1], res.GFLOPsByRound[t-1], a.now, res.MeanStalenessByRound[t-1])
	}
	if cfg.OnRound != nil {
		cfg.OnRound(t, s)
	}
	if cfg.StopAtTarget && res.RoundsToTarget > 0 {
		return true, nil
	}
	return t >= cfg.Rounds, nil
}

// adaptiveSteps is a device's per-round mini-batch step budget: the
// round's full step count scaled by the client's speed, clamped to
// [1, full]. A speed-1 device trains the full round, so the homogeneous
// fleet reproduces the plain trajectory bit-for-bit.
func adaptiveSteps(speed float64, samples, batch, epochs int) int {
	full := epochs * ((samples + batch - 1) / batch)
	steps := int(math.Round(speed * float64(full)))
	if steps < 1 {
		steps = 1
	}
	if steps > full {
		steps = full
	}
	return steps
}

// deviceDuration prices one completed dispatch: the round's metered
// FLOPs over the client's effective throughput.
func (a *AsyncServer) deviceDuration(j *trainJob) float64 {
	return float64(j.flops) / (a.spec.FlopRate * j.speed)
}

// netDuration prices one completed dispatch's wire traffic under the
// client's link profile: RTT plus the measured download and upload bytes
// over the respective bandwidths. The profile is derived statelessly
// from the client's indexed network stream. Zero without a network fleet
// (and for an infinite-bandwidth zero-RTT profile), so unpriced runs are
// bit-for-bit unchanged.
func (a *AsyncServer) netDuration(j *trainJob) float64 {
	if a.spec.Network == nil {
		return 0
	}
	p := clientNetProfile(j.c.ID, a.spec.Network, a.spec.Seed, &a.derive)
	return p.transferTime(j.downBytes, j.upBytes)
}

// armJob fills a job's device dispatch parameters, derived statelessly
// from the client's indexed device stream (no-ops without a device
// fleet).
func (a *AsyncServer) armJob(j *trainJob, id int) {
	if a.spec.Devices == nil {
		return
	}
	j.speed = deviceSpeed(id, a.spec.Devices, a.spec.Seed, &a.derive)
	if a.spec.AdaptiveLocalSteps {
		j.steps = adaptiveSteps(j.speed, len(j.c.Indices), a.spec.BatchSize, a.spec.LocalEpochs)
	}
}

// barrierRunner is the paper's lock-step loop in stepper form, priced
// under the latency model: one step = select K clients, train them in
// parallel, wait for the slowest, aggregate, record. With ZeroLatency the
// clock stays at 0 — that is RuntimeSync.
type barrierRunner struct{ a *AsyncServer }

// quiesce is a no-op: the barrier joins every client inside step, so a
// round boundary has nothing in flight.
func (r barrierRunner) quiesce() {}

// close is a no-op for the same reason, and because the barrier's jobs
// train from s.global itself.
func (r barrierRunner) close() {}

// selectedFlops sums the selected clients' cumulative FLOP counters.
func selectedFlops(selected []*Client) int64 {
	var fl int64
	for _, c := range selected {
		fl += c.Counter.Total()
	}
	return fl
}

func (r barrierRunner) step() (bool, error) {
	a, s := r.a, r.a.s
	cfg := &s.cfg
	if a.rec.res.Rounds >= cfg.Rounds {
		return true, nil
	}
	t := a.rec.res.Rounds + 1
	selected := s.selectClients()
	if pr, ok := cfg.Algo.(PreRounder); ok {
		// PreRound work (FedDANE's and MimeLite's full-gradient pass) runs
		// outside any job, so meter it here: it is training cost.
		before := selectedFlops(selected)
		pr.PreRound(t, selected, s.global)
		a.flopsTotal += selectedFlops(selected) - before
	}
	jobs := s.growJobs(len(selected))
	for i, c := range selected {
		j := jobs[i]
		j.c, j.round, j.seq, j.global = c, t, i, s.global
		j.steps, j.speed = 0, 0
		a.armJob(j, c.ID)
		if a.spec.Devices == nil {
			j.finish = a.now + a.spec.Latency.Sample(c.ID, a.latRng)
		}
		a.pop.dispatched(c.ID)
		// All jobs read the same pre-aggregation global; no writer
		// until every one of them has joined below.
		a.sp.submit(j)
	}
	roundEnd := a.now
	updates := s.growUpdates(len(jobs))
	for i, j := range jobs {
		<-j.done
		if a.spec.Devices != nil {
			// Device-profiled fleet: the round time is the metered
			// compute itself, not an independent latency draw.
			j.finish = a.now + a.deviceDuration(j)
		}
		if a.spec.Network != nil {
			// Network-priced fleet: the transfers' time stacks on top of
			// the compute (or latency-model) duration.
			j.finish += a.netDuration(j)
		}
		a.pop.arrived(j.c.ID, true)
		if j.finish > roundEnd {
			roundEnd = j.finish
		}
		updates[i] = j.update // staleness 0 by construction
		j.update = Update{}
		a.flopsTotal += j.flops
		a.rec.addWire(j.downBytes + j.upBytes)
	}
	a.now = roundEnd
	return a.finishRound(updates)
}

// bufferedRunner is the event-driven asynchronous loop in stepper form:
// keep Concurrency clients in flight and let the aggregation policy
// decide when arrivals merge (FedBuff merges every K, FedAsync every
// single one) and how each buffered update is weighted. One step = the
// event-loop iterations up to and including the next aggregation, so
// between steps the run is at an aggregation boundary: the policy buffer
// is exactly the not-yet-merged arrivals and every in-flight job is
// either still training (joinable) or priced and queued in the event
// heap — precisely the state Snapshot serializes.
type bufferedRunner struct {
	a *AsyncServer
	// The formerly loop-local event state, promoted to fields so a step
	// can return mid-run and a snapshot can serialize the loop.
	inflight jobHeap
	buffer   []*trainJob
	seq      int // dispatch sequence (total dispatches so far)
	// free is the trainJob pool: jobs recycle after their update merges
	// (or is voided by a permanent drop), so steady-state dispatch
	// allocates neither jobs nor done channels. Bounded by
	// Concurrency + BufferSize live jobs.
	free []*trainJob
	// cur is the snapshot of the current model version: taken by the
	// first dispatch after an aggregation, shared by every later one,
	// nil in between. snaps is the fixed table of snapshot records, one
	// per version that can be alive at once: a superseded version lives
	// only while one of the at most Concurrency in-flight jobs is still
	// to be joined. A record with no vector is free.
	cur   *globalSnap
	snaps []globalSnap
	// snapshots counts the global copies taken so far — one per model
	// version that dispatched anything, however many jobs it dispatched.
	snapshots int
	// unjoined counts the jobs handed to the shards (or run inline) and
	// not yet joined: what the inline branch of dispatch checks is zero.
	unjoined int
	// dropCB/rejoinCB are the availability callbacks as stored method
	// values — bound once so churn.advance in the hot loop does not
	// allocate a closure per call.
	dropCB   func(id int, at float64, permanent bool)
	rejoinCB func(id int, at float64)
}

// globalSnap is the global model as it stood at one model version: a
// pooled copy nobody writes, shared by every job dispatched at that
// version. refs counts those of them not joined yet; when the last one is
// and an aggregation has superseded the version, the vector returns to
// paramsPool and the record is free again.
type globalSnap struct {
	vec  []float64
	refs int
}

func newBufferedRunner(a *AsyncServer) *bufferedRunner {
	r := &bufferedRunner{a: a, snaps: make([]globalSnap, a.spec.Concurrency+1)}
	// The heap's client index is how the churn process finds a dropped
	// client's in-flight job without a fleet-wide pointer array.
	r.inflight.trackClients(len(a.s.clients))
	r.dropCB = r.onDrop
	r.rejoinCB = r.onRejoin
	return r
}

// getJob takes a job from the pool (or allocates the pool's next one,
// with its re-armed done channel), reset except for the channel.
func (r *bufferedRunner) getJob() *trainJob {
	if n := len(r.free); n > 0 {
		j := r.free[n-1]
		r.free = r.free[:n-1]
		return j
	}
	return &trainJob{done: make(chan struct{}, 1), heapIdx: -1}
}

// recycleJob returns a drained job (update extracted or voided, done
// token consumed) to the pool.
func (r *bufferedRunner) recycleJob(j *trainJob) {
	*j = trainJob{done: j.done, task: j.task, heapIdx: -1}
	r.free = append(r.free, j) //fedtripvet:allow pool free list, bounded by Concurrency+BufferSize
}

// quiesce joins every in-flight job whose local training has not been
// waited on yet. Training physically completes before its virtual
// arrival is processed in any case, so joining early never changes a
// trajectory — it only makes the per-client state (the method's rows, RNG
// position, FLOP counters) and the job's update serializable at this
// boundary.
func (r *bufferedRunner) quiesce() {
	for _, j := range r.inflight.js {
		r.join(j)
	}
}

// close leaves the runner holding no global copy: what is in flight is
// joined and the current version's snapshot goes back to the pool.
func (r *bufferedRunner) close() {
	r.quiesce()
	r.retire()
}

// join waits for j's local training (once) and drops its reference to
// the snapshot it trained from: nothing reads it afterwards, so holding
// it until the virtual arrival would keep a superseded version's vector
// out of the pool — which a resumed run, whose jobs carry none, never
// holds.
func (r *bufferedRunner) join(j *trainJob) {
	if j.trained {
		return
	}
	<-j.done
	j.trained = true
	r.unjoined--
	sn := j.gsnap
	j.gsnap, j.global = nil, nil
	if sn.refs--; sn.refs == 0 && sn != r.cur {
		r.freeSnap(sn)
	}
}

// acquire points j at the current version's snapshot, copying the global
// model if j is the version's first dispatch. Workers only read it, and
// s.global may change under them at the next aggregation: that is what
// the copy is for.
func (r *bufferedRunner) acquire(j *trainJob) {
	if r.cur == nil {
		// Once per model version, next to an |w|-sized copy: a scan of
		// the table costs nothing worth a free list.
		for i := range r.snaps {
			if r.snaps[i].vec == nil {
				r.cur = &r.snaps[i]
				break
			}
		}
		r.cur.vec = paramsPool.getCopy(r.a.s.global)
		r.snapshots++
	}
	r.cur.refs++
	j.gsnap, j.global = r.cur, r.cur.vec
}

// retire ends the current version ahead of an aggregation: its snapshot
// is freed now if every job that trained from it has been joined, by the
// last join otherwise.
func (r *bufferedRunner) retire() {
	sn := r.cur
	r.cur = nil
	if sn != nil && sn.refs == 0 {
		r.freeSnap(sn)
	}
}

func (r *bufferedRunner) freeSnap(sn *globalSnap) {
	paramsPool.put(sn.vec)
	sn.vec = nil
}

// Availability callbacks. A drop pulls the client out of the idle set
// and, when it is mid-flight, parks the job — the unserved remainder of
// its transfer is stashed and the arrival pushed to +Inf — until the
// rejoin restores finish = rejoin + remainder (the device pauses and
// uploads late, which is how updates stale enough for a
// maxstale cutoff arise). A permanent drop voids the update
// instead: a parked job first gets a finite arrival back so the void
// drains through the loop. A rejoin makes an idle client dispatchable
// again; an in-flight one returns through its unparked arrival. A parked
// job can never pop while parked: its owner is offline, so a future
// churn event for it always precedes +Inf.
func (r *bufferedRunner) onDrop(id int, at float64, permanent bool) {
	a := r.a
	a.pop.idle.remove(id)
	j := r.inflight.byClient(id)
	if j == nil {
		return
	}
	if permanent {
		if j.remaining != 0 {
			j.finish = at + j.remaining
			j.remaining = 0
			r.inflight.fix(j.heapIdx)
		}
		j.dropped = true
		return
	}
	if j.finish > at {
		j.remaining = j.finish - at
		j.finish = math.Inf(1)
		r.inflight.fix(j.heapIdx)
	}
}

func (r *bufferedRunner) onRejoin(id int, at float64) {
	j := r.inflight.byClient(id)
	if j == nil {
		r.a.pop.idle.add(id)
		return
	}
	if j.remaining != 0 {
		j.finish = at + j.remaining
		j.remaining = 0
		r.inflight.fix(j.heapIdx)
	}
}

//fedtripvet:hotpath
func (r *bufferedRunner) dispatch() {
	a, s := r.a, r.a.s
	// A device-profiled or network-priced arrival time needs quantities
	// (metered FLOPs, encoded wire bytes) that exist only once training
	// ran: those fleets gather each burst, train it, and join it in
	// dispatch order before the clock may advance. The latency draw of a
	// network-priced job still happens in pick order — the stream is
	// identical to the unpriced run's — and the transfer time is added at
	// the join.
	joinNow := a.spec.Devices != nil || a.spec.Network != nil
	burst := a.joinScratch[:0]
	for r.inflight.len()+len(burst) < a.spec.Concurrency {
		id, ok := a.pickAvailable()
		if !ok {
			break
		}
		// The job comes from the runner's free list and its global from
		// the version's shared snapshot, so steady-state dispatch
		// allocates nothing.
		j := r.getJob()
		j.c, j.round, j.seq = s.clients[id], a.rec.res.Rounds+1, r.seq
		r.seq++
		a.armJob(j, id)
		r.acquire(j)
		a.pop.dispatched(id)
		if a.spec.Devices == nil {
			j.finish = a.now + a.spec.Latency.Sample(id, a.latRng)
		}
		if joinNow {
			burst = append(burst, j) //fedtripvet:allow joinScratch-backed burst list, reset to [:0] every dispatch
			continue
		}
		r.unjoined++
		a.sp.submit(j)
		r.inflight.push(j)
	}
	if len(burst) == 1 {
		// The loop would block on this one job anyway, so it trains here,
		// on shard 0's engine. No worker can be holding that engine: every
		// earlier burst was joined before its dispatch returned.
		if r.unjoined != 0 {
			panic("core: inline training while submitted jobs are outstanding")
		}
		r.unjoined++
		a.sp.run(burst[0], 0)
	} else {
		// The shards train the burst in parallel.
		for _, j := range burst {
			r.unjoined++
			a.sp.submit(j)
		}
	}
	for _, j := range burst {
		r.join(j)
		if a.spec.Devices != nil {
			j.finish = a.now + a.deviceDuration(j)
		}
		if a.spec.Network != nil {
			j.finish += a.netDuration(j)
		}
		r.inflight.push(j)
	}
	a.joinScratch = burst[:0]
}

//fedtripvet:hotpath
func (r *bufferedRunner) step() (bool, error) {
	a, s := r.a, r.a.s
	if a.rec.res.Rounds >= s.cfg.Rounds {
		return true, nil
	}
	for {
		// Availability first: every drop/rejoin up to the current clock
		// must land before this instant's dispatch decisions.
		if a.churn != nil {
			a.churn.advance(a.now, r.dropCB, r.rejoinCB)
		}
		r.dispatch()
		j := r.inflight.peek()
		if a.churn != nil {
			// The next event is the earlier of the next arrival and the
			// next availability change; an exact tie processes the
			// availability change first. (A drop tied with an arrival
			// does not defer it — onDrop only defers jobs with
			// finish > drop time, so an update that is already due
			// merges before its client goes dark.)
			if at, ok := a.churn.next(); ok && (j == nil || at <= j.finish) {
				if at > a.now {
					a.now = at
				}
				continue
			}
		}
		if j == nil {
			return true, fmt.Errorf("core: async runtime stalled: no client in flight and none dispatchable (offline clients with no rejoin scheduled cannot return)") //fedtripvet:allow cold terminal error path
		}
		r.inflight.pop()
		if j.finish > a.now {
			a.now = j.finish
		}
		r.join(j)
		a.pop.arrived(j.c.ID, a.churn == nil || a.churn.online(j.c.ID))
		a.flopsTotal += j.flops
		a.rec.addWire(j.downBytes + j.upBytes)
		if j.dropped {
			// The device died mid-flight: the update is lost. Its FLOPs
			// stay metered (the work was burned before the drop); the
			// pooled upload buffer goes straight back, and so does the
			// job.
			if j.update.pooled {
				paramsPool.put(j.update.Params)
			}
			j.update = Update{}
			a.rec.res.DroppedUpdates++
			r.recycleJob(j)
			continue
		}
		r.buffer = append(r.buffer, j) //fedtripvet:allow grows once to the merge policy's buffer size, then reused at [:0]
		if !a.s.policy.ReadyToMerge(len(r.buffer)) {
			continue
		}

		t := a.rec.res.Rounds + 1
		updates := s.growUpdates(len(r.buffer))
		for i, bj := range r.buffer {
			u := bj.update
			bj.update = Update{}
			u.Staleness = t - bj.round
			if u.Staleness < 0 {
				u.Staleness = 0
			}
			updates[i] = u
			r.recycleJob(bj)
		}
		r.buffer = r.buffer[:0]
		r.retire()
		return a.finishRound(updates)
	}
}

// pickAvailable draws one idle client uniformly at random (the async
// analogue of the paper's uniform selection), or reports none idle. O(1)
// via the population registry's dense idle set; it consumes exactly one
// draw from the selection stream per successful pick.
func (a *AsyncServer) pickAvailable() (int, bool) {
	return a.pop.idle.pick(a.s.rng)
}
