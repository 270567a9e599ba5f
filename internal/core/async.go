// The simulated-clock federated runtime: one event loop that runs both the
// asynchronous, staleness-aware buffered runtime and the paper's lock-step
// round.
//
// The buffered runtime keeps a fixed number of clients training at all
// times and aggregates every BufferSize arrivals (FedBuff-style buffered
// async), discounting each merged update by its staleness — the number of
// aggregations the server completed while the update was in flight. The
// lock-step runtimes (sync, barrier) are the same loop behind a dispatch
// gate: a round dispatches the K clients it selects only when nothing is
// in flight or buffered, and merges once the last of them has arrived, in
// dispatch order. That is the paper's loop — select K clients, wait for
// all of them, aggregate — and under heterogeneous client speeds every
// round costs the straggler's latency (at zero latency the clock never
// moves: that is RuntimeSync). Behind the gate a client that drops
// mid-round arrives after its rejoin, and one that drops for good is
// voided, so the round merges its survivors.
//
// A run is one object, the Server: it holds the resolved RunSpec, the
// global model and the clients, and beside them the virtual clock, the
// scheduler registry, the recorder, the shard pool, the job free list and
// the churn process. The loop holds only its own event state, and
// Server.finishRound merges and records each round.
//
// Time is simulated: the fleet's distributions (fleet.go) give each
// dispatch a virtual duration, and the event loop processes arrivals in
// virtual-time order (ties broken by dispatch order, so runs are
// deterministic). Local training itself really executes — on the bounded
// shard pool, one training engine per shard — which is what the
// throughput benchmarks measure; only the clock is virtual.
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
//     so the training machinery is O(shards * |w|), not
//     O(population * |w|).
//   - Derivable per-client values — latency bases, device speeds, network
//     profiles, fault classes — are regenerated on demand from seed
//     streams keyed by client ID (one scratch-RNG reseed per lookup), so
//     no fleet-wide float or profile array exists at all; availability
//     runs as an aggregate sampled process (churn.go) with O(1) clock
//     state instead of one Markov chain per client.
//   - trainJobs are pooled and the event heap tracks clients by int32
//     slot index, so steady-state event processing allocates nothing and
//     GC scan cost stops growing with the population.
//   - The global model is held once per model version, not once per
//     dispatch: every job dispatched between two aggregations trains from
//     the same immutable, reference-counted snapshot, so the copies alive
//     follow the versions in flight rather than Concurrency. Under a
//     float32 downlink a snapshot is the version's float32 image — what
//     its clients receive — in blocks of 512 entries, and a version
//     shares every block whose bits another version the run holds has
//     at the same place: one pass over the global per version, and a
//     new block only where the merge moved an entry of it. Without one
//     it is a float64 copy of the global.
//   - An upload is not one dense vector per client, in flight or in the
//     policy buffer. Over a transport, one that differs from the float32
//     image of its version's global in at most a quarter of its entries
//     — a sparse uplink's — is held as a patch of those entries, and
//     keeps its version's snapshot until the round that merges it is
//     done; one whose entries are all exact in float32 — an f32
//     uplink's — is held narrowed, at half the bytes. Without a
//     transport, one whose version stays alive anyway — a recipe pins
//     it, or it is the global behind the lock-step gate — is held as a
//     bitmap of the entries whose bits differ from the version's and
//     those entries' values, in pooled chunks, whenever that takes fewer
//     bytes. The merge reads every form where it lies
//     (Server.aggregate). On a top-k fleet the dense vectors held then
//     follow the live versions, not Concurrency plus the buffer; a
//     quantized uplink's upload, and one that changed nearly every
//     entry, stays dense.
//   - A job is priced when it is sent and trained only when its arrival
//     comes due. Its dispatch bound — the latency draw, the analytic
//     FLOPs of its batches and step budget (the model's, plus a method's
//     declared attaching cost, AttachCoster) over the device's
//     throughput, and the link's RTT and, without a transport, its
//     analytic bytes — is the earliest it can arrive, and the event heap
//     queues it there. Once the loop reaches it, every job due then
//     trains at once across the shards, with enough of the next due ones
//     to give each shard as many, and each is priced from what it
//     metered, as it would have been at dispatch. So an in-flight job
//     that waits to train holds its version's snapshot and no upload,
//     and a trained one holds its upload until it arrives: a few of the
//     next due jobs, parked ones, and, where a bound falls short of the
//     arrival, those trained at their bound. Where the bound is exact —
//     no method work it cannot count, no transport bytes a link prices —
//     pricing never moves a job; elsewhere it moves the job to its
//     priced arrival in the event heap.
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
	"container/heap"
	"fmt"
	"math"
	"slices"

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

// finishRound is the tail of every round: merge the gathered updates,
// check for divergence, record the metrics, recycle the upload buffers,
// and report whether the run is complete.
//
//fedtripvet:hotpath
func (s *Server) finishRound(updates []Update) (bool, error) {
	cfg, res := &s.spec.Config, s.rec.res
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
	acc := s.rec.record(t, cfg.Rounds, updates, s.flopsTotal)
	// The merge and metrics have consumed this round's uploads; their
	// buffers go back to the pool for the next round's checkouts.
	recycleUpdates(updates)
	if s.chunks != nil {
		s.chunks.trim()
	}
	res.SimTimeByRound = append(res.SimTimeByRound, s.now)                                      //fedtripvet:allow per-round series, amortized growth over the run
	res.MeanStalenessByRound = append(res.MeanStalenessByRound, staleSum/float64(len(updates))) //fedtripvet:allow per-round series, amortized growth over the run
	if cfg.Logf != nil {
		cfg.Logf("round %3d/%d algo=%s acc=%.4f loss=%.4f gflops=%.2f t=%.1fs stale=%.2f", t, cfg.Rounds, cfg.Algo.Name(), acc, res.TrainLoss[t-1], res.GFLOPsByRound[t-1], s.now, res.MeanStalenessByRound[t-1])
	}
	if cfg.OnRound != nil {
		cfg.OnRound(t, s)
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

// armJob fills a job's dispatch-time parameters: its arrival under the
// latency draw and, on a device fleet, the client's speed (derived
// statelessly from its indexed device stream) and step budget. A device
// fleet's latency is zero, which draws nothing; its compute replaces it
// (arrival).
func (s *Server) armJob(j *trainJob, id int) {
	sp := &s.spec
	j.drawn = s.now + sp.Latency.duration(id, s.latRng)
	if sp.Devices.None() {
		return
	}
	j.speed = sp.Devices.speed(id, sp.Seed, &s.derive)
	if sp.AdaptiveLocalSteps {
		j.steps = adaptiveSteps(j.speed, len(j.c.Indices), sp.BatchSize, sp.LocalEpochs)
	}
}

// arrival is when j arrives if its round costs flops and moves down and
// up bytes. On a device fleet the FLOPs over the client's throughput
// replace the latency draw — the round time is the compute itself; on a
// network fleet the transfers' time (RTT plus the bytes over the
// client's link) stacks on top of either. An infinite-bandwidth zero-RTT
// link adds exactly 0, so it reproduces the unpriced run bit-for-bit.
// Both the dispatch bound and the priced arrival go through it, so they
// are equal whenever their counts are.
func (s *Server) arrival(j *trainJob, flops, down, up int64) float64 {
	sp := &s.spec
	at := j.drawn
	if !sp.Devices.None() {
		at = j.drawn + float64(flops)/(sp.FlopRate*j.speed)
	}
	if !sp.Network.None() {
		at += sp.Network.link(j.c.ID, sp.Seed, &s.derive).transferTime(down, up)
	}
	return at
}

// bound is the earliest j can arrive, known at its dispatch: its arrival
// at the analytic FLOPs of its round on a device fleet, and at the dense
// float32 transfers without a transport, none over one (the link's RTT
// alone). It is exact unless the method meters work it does not declare
// or a transport prices the link (bufferedRunner.inexact).
func (s *Server) bound(j *trainJob) float64 {
	var flops, wire int64
	if !s.spec.Devices.None() {
		flops = s.roundFLOPs(j)
	}
	if s.wire == nil {
		wire = int64(4 * len(s.global))
	}
	return s.arrival(j, flops, wire, wire)
}

// roundFLOPs is what j's round meters, as far as the dispatch knows it:
// a training step per batch — an epoch's batches are full but its last,
// and j's step budget may end the round early — and the method's
// attaching FLOPs a step when it declares them (AttachCoster).
func (s *Server) roundFLOPs(j *trainJob) int64 {
	sp := &s.spec
	n, b := len(j.c.Indices), sp.BatchSize
	if n == 0 {
		return 0
	}
	per := (n + b - 1) / b
	steps := sp.LocalEpochs * per
	if j.steps > 0 {
		steps = min(steps, j.steps)
	}
	lasts := steps / per // steps that ran an epoch's last batch
	m := s.eval.model
	flops := int64(steps-lasts)*m.TrainFLOPs(b) + int64(lasts)*m.TrainFLOPs(n-(per-1)*b)
	if ac, ok := sp.Algo.(AttachCoster); ok {
		flops += int64(steps) * ac.AttachFLOPs(j.c, j.round)
	}
	return flops
}

// getJob takes a job from the run's free list (or allocates the list's
// next one, with its done channel), reset except for the channel and the
// bound task.
func (s *Server) getJob() *trainJob {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free = s.free[:n-1]
		return j
	}
	return &trainJob{done: make(chan struct{}, 1), heapIdx: -1, dueIdx: -1}
}

// recycleJob returns a drained job (update extracted or voided, done
// token consumed) to the free list, which keeps its patch storage.
func (s *Server) recycleJob(j *trainJob) {
	*j = trainJob{done: j.done, task: j.task, heapIdx: -1, dueIdx: -1, patch: j.patch, chain: j.chain[:0]}
	s.free = append(s.free, j) //fedtripvet:allow job free list, bounded by the most jobs the loop holds at once
}

// online reports whether client id is available (always, without churn).
func (s *Server) online(id int) bool {
	return s.churn == nil || s.churn.online(id)
}

// bufferedRunner is the run's event loop in stepper form. Ungated (the
// async runtime) it keeps Concurrency clients in flight and lets the
// aggregation policy decide when arrivals merge (FedBuff merges every K,
// FedAsync every single one) and how each buffered update is weighted.
// One step = the event-loop iterations up to and including the next
// aggregation, so between steps the run is at an aggregation boundary:
// the policy buffer is exactly the not-yet-merged arrivals, and every
// in-flight job is queued in the event heap, either waiting to train at
// its dispatch bound or trained and priced; none is on a shard. Snapshot
// trains the waiting ones first and serializes the rest.
type bufferedRunner struct {
	s *Server
	// gated is the lock-step dispatch gate (every runtime but async): a
	// round of K selected clients opens only when nothing is in flight or
	// buffered, so a boundary holds neither, and merges whole.
	gated bool
	// The formerly loop-local event state, promoted to fields so a step
	// can return mid-run and a snapshot can serialize the loop.
	inflight jobHeap
	buffer   []*trainJob
	// due holds the in-flight jobs that wait to train, and batch is the
	// scratch a set of them trains from (trainDue): each as long as the
	// most jobs in flight at once, from the start.
	due   dueHeap
	batch []*trainJob
	// inexact is set when a dispatch bound can fall short of the priced
	// arrival, so that pricing moves a job in the event heap: the method
	// meters FLOPs it does not declare on a device fleet, or a
	// transport's bytes are priced on a network fleet. Unset, the bound
	// is the arrival.
	inexact bool
	// seq is the dispatch sequence: total dispatches so far, or behind the
	// gate the job's index in its round's selection.
	seq int
	// cur is the snapshot of the current model version: taken by the
	// first dispatch after an aggregation, shared by every later one,
	// nil in between. snaps is the table of snapshot records, one per
	// version alive at once: a superseded version lives only while one
	// of the at most Concurrency in-flight jobs still needs it — to train
	// from until it is joined, or, holding a patched upload, to rebuild
	// it from until it arrives — or a recipe pins it (lazyrows.go), which
	// is what grows the table past Concurrency+1. A resumed run's table
	// starts as its stream's round images. A record with no vector is
	// free.
	cur   *globalSnap
	snaps []*globalSnap
	// snapshots counts the global copies taken so far — one per model
	// version that dispatched anything, however many jobs it dispatched.
	snapshots int
	// dropCB/rejoinCB are the availability callbacks as stored method
	// values — bound once so churn.advance in the hot loop does not
	// allocate a closure per call.
	dropCB   func(id int, at float64, permanent bool)
	rejoinCB func(id int, at float64)
}

// globalSnap is the global model as it stood at one model version,
// held as what its clients receive, shared by every job dispatched at
// that version and written by nobody. Under a transport whose downlink
// delivers a float32 image of the global (Server.hold), it is that
// image, img, in blocks of chunkLen entries that it shares with the
// other versions the run holds wherever their bits are the same
// (blockStore); otherwise, vec, a copy of the global from paramsPool.
// refs counts the jobs that still hold it (release), and the recipes
// that pin it; when the last one lets go and an aggregation has
// superseded the version, its vector returns to its pool, or its
// blocks to the run's store, and the record is free again. ord is the
// record's place in a snapshot's round-image section, -1 when no recipe
// pins it (snapImages).
type globalSnap struct {
	vec  []float64
	img  image32
	refs int
	ord  int32
}

// free reports whether the record holds no version.
func (sn *globalSnap) free() bool { return sn.vec == nil && sn.img.n == 0 }

// size is the version's parameter count.
func (sn *globalSnap) size() int { return len(sn.vec) + sn.img.n }

// source is the version as a downlink codes it: vec, or the float32
// image widened into dst.
func (sn *globalSnap) source(dst []float64) []float64 {
	if sn.img.n > 0 {
		return sn.img.widen(dst)
	}
	return sn.vec
}

// hold holds the model version whose global is g as its clients receive
// it, when that is a float32 image: under a transport with a Coder, g's
// downlink is coded once, into server scratch, for client 0 in round 0
// (Coder); when every entry of it is exact in float32 and coding it
// again gives it back bit for bit, at the same wire size — any float32
// downlink's image — hold takes it into im from the run's block store,
// one pass over it, and reports true: every client's downlink of it is
// the downlink of g. Otherwise it reports false, and the version is
// held as a float64 copy of g.
func (s *Server) hold(g []float64, im *image32) bool {
	coder := s.rows.coder
	if coder == nil {
		return false
	}
	img := s.widenBuf()
	wire := coder.DownCode(img, 0, 0, g)
	if !f32Exact(img) {
		return false
	}
	s.versions.take(im, img)
	if coder.DownCode(img, 0, 0, img) != wire || !sameBits(img, im) {
		s.versions.drop(im)
		return false
	}
	return true
}

// f32Exact reports whether every entry of v survives a round trip
// through float32 bit for bit.
func f32Exact(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) != math.Float64bits(f32Image(x)) {
			return false
		}
	}
	return true
}

// sameBits reports whether v is im widened, bit for bit.
func sameBits(v []float64, im *image32) bool {
	for b := range im.blocks {
		for i, x := range im.block(b) {
			if math.Float64bits(v[b*chunkLen+i]) != math.Float64bits(float64(x)) {
				return false
			}
		}
	}
	return true
}

func newBufferedRunner(s *Server) *bufferedRunner {
	sp := &s.spec
	r := &bufferedRunner{
		s:     s,
		gated: sp.Runtime != RuntimeAsync,
		snaps: make([]*globalSnap, 0, sp.Concurrency+1),
		due:   make(dueHeap, 0, sp.Concurrency),
		batch: make([]*trainJob, 0, sp.Concurrency),
	}
	_, declared := sp.Algo.(AttachCoster)
	r.inexact = !sp.Devices.None() && !declared || !sp.Network.None() && s.wire != nil
	// The heap's client index is how the churn process finds a dropped
	// client's in-flight job without a fleet-wide pointer array.
	r.inflight.trackClients(len(s.clients))
	r.dropCB = r.onDrop
	r.rejoinCB = r.onRejoin
	return r
}

// quiesce trains every in-flight job that waits to train. No job reads
// another's state or the server's, so training early never changes a
// trajectory — it only makes the per-client state (the method's rows, RNG
// position, FLOP counters) and the job's update serializable at this
// boundary.
func (r *bufferedRunner) quiesce() {
	batch := r.batch[:0]
	for r.due.Len() > 0 {
		batch = append(batch, heap.Pop(&r.due).(*trainJob)) //fedtripvet:allow scratch sized to the most jobs in flight at construction
	}
	r.batch = batch
	r.train(batch)
}

// joinTraining joins the jobs handed to a shard and not joined yet: none
// at a boundary, only those a panic left mid-train.
func (r *bufferedRunner) joinTraining() {
	for _, j := range r.inflight.js {
		if j.training {
			r.join(j)
		}
	}
}

// close leaves the runner holding no global copy but those the jobs
// that wait to train hold: what a shard trains is joined and the current
// version's snapshot goes back to the pool.
func (r *bufferedRunner) close() {
	r.joinTraining()
	r.retire()
}

// trainDue trains top, the event heap's earliest job, which has not
// trained yet, and with it every waiting job due by its arrival and as
// many of the next due ones as fill each shard's share: the choice is
// made on virtual times only.
//
//fedtripvet:hotpath
func (r *bufferedRunner) trainDue(top *trainJob) {
	heap.Remove(&r.due, top.dueIdx)
	batch := append(r.batch[:0], top) //fedtripvet:allow scratch sized to the most jobs in flight at construction
	shards := len(r.s.sp.engines)
	for r.due.Len() > 0 && (r.due[0].bound <= top.finish || len(batch)%shards != 0) {
		batch = append(batch, heap.Pop(&r.due).(*trainJob)) //fedtripvet:allow scratch sized to the most jobs in flight at construction
	}
	r.batch = batch
	r.train(batch)
}

// train hands batch, jobs out of the dueHeap, to the shards, joins each
// and prices it.
//
//fedtripvet:hotpath
func (r *bufferedRunner) train(batch []*trainJob) {
	for _, j := range batch {
		j.training = true
		r.s.sp.submit(j)
	}
	for _, j := range batch {
		r.join(j)
		r.price(j)
	}
}

// join waits for j's local training. A job whose upload is not a patch
// drops its reference to the snapshot it trained from here: nothing reads
// it afterwards, so holding it until the virtual arrival would keep a
// superseded version's vector out of the pool. A patched upload, of
// indices or a bitmap, is read against its version's global, and keeps
// it until the round that merges it is done (step).
func (r *bufferedRunner) join(j *trainJob) {
	<-j.done
	j.training, j.trained = false, true
	r.s.rows.settle(j)
	if !j.patched() {
		r.release(j)
	}
}

// price checks j's arrival at what it metered against its dispatch bound:
// never earlier, and the same unless the run's bounds are inexact,
// where j then moves to it. A job parked by a drop keeps the
// arrival churn gave it: only a job whose bound was its arrival waits
// parked untrained (onDrop).
//
//fedtripvet:hotpath
func (r *bufferedRunner) price(j *trainJob) {
	at := r.s.arrival(j, j.flops, j.downBytes, j.upBytes)
	switch {
	case at < j.bound || !r.inexact && at != j.bound:
		panic(fmt.Sprintf("core: client %d metered %d FLOPs and %d+%d bytes, an arrival at %v against its dispatch bound %v (%s's AttachFLOPs is not what it meters)", //fedtripvet:allow cold contract-violation path
			j.c.ID, j.flops, j.downBytes, j.upBytes, at, j.bound, r.s.spec.Algo.Name()))
	case r.inexact:
		j.finish = at
		heap.Fix(&r.inflight, j.heapIdx)
	}
}

// release drops j's hold on the global it trained from. A gated job
// trained from s.global, which nothing writes before its round merges,
// and holds no snapshot — unless it recorded a participation.
func (r *bufferedRunner) release(j *trainJob) {
	sn := j.gsnap
	j.gsnap, j.global = nil, nil
	if sn != nil {
		r.unpin(sn)
	}
}

// unpin drops one reference to sn, freeing it with the last once its
// version is superseded.
func (r *bufferedRunner) unpin(sn *globalSnap) {
	if sn.refs--; sn.refs == 0 && sn != r.cur {
		r.freeSnap(sn)
	}
}

// arrive settles a popped, joined job whose client dropped for good: its
// upload goes back to its pool unmerged, and the job lets go of its
// global. Any other upload stays in the form it was held in, compact or
// dense, through the policy buffer, OnUpdates and the merge, which reads
// every form where it lies (Server.aggregate); a snapshot writes a
// buffered one widened.
func (r *bufferedRunner) arrive(j *trainJob) {
	if j.dropped {
		j.update.recycle()
		r.release(j)
	}
}

// acquire points j at the current version's snapshot, taking it from the
// global model (hold) if j is the version's first dispatch. Workers only
// read it, and s.global may change under them at the next aggregation:
// that is what the snapshot is for.
func (r *bufferedRunner) acquire(j *trainJob) {
	if r.cur == nil {
		// Once per model version, next to an |w|-sized copy: a scan of
		// the table costs nothing worth a free list.
		for _, sn := range r.snaps {
			if sn.free() {
				r.cur = sn
				break
			}
		}
		if r.cur == nil {
			r.cur = new(globalSnap)
			r.snaps = append(r.snaps, r.cur)
		}
		if !r.s.hold(r.s.global, &r.cur.img) {
			r.cur.vec = paramsPool.getCopy(r.s.global)
		}
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
	r.s.versions.drop(&sn.img)
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
// churn event for it always precedes +Inf. Parking needs the arrival: a
// job that waits to train is parked at its bound when that is exact, and
// trained and priced first when it is not.
func (r *bufferedRunner) onDrop(id int, at float64, permanent bool) {
	r.s.pop.idle.remove(id)
	j := r.inflight.byClient(id)
	if j == nil {
		return
	}
	if permanent {
		if j.remaining != 0 {
			j.finish = at + j.remaining
			j.remaining = 0
			heap.Fix(&r.inflight, j.heapIdx)
		}
		j.dropped = true
		return
	}
	if !j.trained && r.inexact {
		heap.Remove(&r.due, j.dueIdx)
		r.batch = append(r.batch[:0], j) //fedtripvet:allow scratch sized to the most jobs in flight at construction
		r.train(r.batch)
	}
	if j.finish > at {
		j.remaining = j.finish - at
		j.finish = math.Inf(1)
		heap.Fix(&r.inflight, j.heapIdx)
	}
}

func (r *bufferedRunner) onRejoin(id int, at float64) {
	j := r.inflight.byClient(id)
	if j == nil {
		r.s.pop.idle.add(id)
		return
	}
	if j.remaining != 0 {
		j.finish = at + j.remaining
		j.remaining = 0
		heap.Fix(&r.inflight, j.heapIdx)
	}
}

// dispatch sends clients out at the current clock. Ungated it tops the
// fleet up to Concurrency; gated it opens the next lock-step round once
// the last one has merged. Nothing trains here: each job is queued at its
// dispatch bound, and trains when it comes due (step).
//
//fedtripvet:hotpath
func (r *bufferedRunner) dispatch() {
	s := r.s
	if r.gated {
		if r.inflight.Len() == 0 && len(r.buffer) == 0 {
			for _, c := range r.openRound() {
				r.send(c)
			}
		}
		return
	}
	for r.inflight.Len() < s.spec.Concurrency {
		// One uniform pick from the idle set (the async analogue of the
		// paper's uniform selection): O(1), one selection-stream draw.
		id, ok := s.pop.idle.pick(s.rng)
		if !ok {
			break
		}
		r.send(s.client(id))
	}
}

// send dispatches client c. The job comes from the run's free list and,
// ungated, its global from the version's shared snapshot, so steady-state
// dispatch allocates nothing; a gated job reads s.global itself, which
// nothing writes before the whole round has merged, unless it records a
// participation, whose recipe will pin the round's snapshot. A client
// whose rows are a chain hands it to the job, which replays it. The job
// is queued at its dispatch bound in the event heap, and waits to train.
//
//fedtripvet:hotpath
func (r *bufferedRunner) send(c *Client) {
	s := r.s
	j := s.getJob()
	j.c, j.round, j.seq = c, s.rec.res.Rounds+1, r.seq
	r.seq++
	s.armJob(j, c.ID)
	if j.record = c.recipe != 0 || s.rows.on && c.LastRound == 0 && c.state == nil; j.record {
		j.head, j.chain = s.rows.take(c, j.chain)
	}
	if r.gated && !j.record {
		j.global = s.global
	} else {
		r.acquire(j)
	}
	s.pop.dispatched(c.ID)
	j.bound = s.bound(j)
	j.finish = j.bound
	heap.Push(&r.inflight, j)
	heap.Push(&r.due, j)
}

// openRound opens a lock-step round: it draws the round's clients
// (selectClients) and runs the method's pre-round pass over them. Nothing
// is in flight, so seq restarts at the round's first job.
func (r *bufferedRunner) openRound() []*Client {
	s := r.s
	r.seq = 0
	sel := s.selectClients()
	if pr, ok := s.spec.Algo.(PreRounder); ok && len(sel) > 0 {
		// PreRound work (FedDANE's and MimeLite's full-gradient pass) runs
		// outside any job, so meter it here: it is training cost.
		before := selectedFlops(sel)
		pr.PreRound(s.rec.res.Rounds+1, sel, s.global)
		s.flopsTotal += selectedFlops(sel) - before
	}
	return sel
}

// selectedFlops sums the selected clients' cumulative FLOP counters.
func selectedFlops(selected []*Client) int64 {
	var fl int64
	for _, c := range selected {
		fl += c.Counter.Total()
	}
	return fl
}

// next is the event heap's earliest job once it has trained, or nil. A
// top that has not trained yet trains now (trainDue) unless an
// availability change comes at or before its bound, which the loop
// processes first; pricing can then move it later and make another job
// the top.
//
//fedtripvet:hotpath
func (r *bufferedRunner) next() *trainJob {
	for {
		j := r.inflight.peek()
		if j == nil || j.trained {
			return j
		}
		if ch := r.s.churn; ch != nil {
			if at, ok := ch.next(); ok && at <= j.finish {
				return j
			}
		}
		r.trainDue(j)
	}
}

// step runs the loop to the next aggregation and returns at its
// boundary: every in-flight job queued in the event heap, waiting to
// train or trained and priced, none on a shard, and the policy buffer
// empty.
//
//fedtripvet:hotpath
func (r *bufferedRunner) step() (bool, error) {
	s := r.s
	if s.rec.res.Rounds >= s.spec.Rounds {
		return true, nil
	}
	for {
		// Availability first: every drop/rejoin up to the current clock
		// must land before this instant's dispatch decisions.
		if s.churn != nil {
			s.churn.advance(s.now, r.dropCB, r.rejoinCB)
		}
		r.dispatch()
		j := r.next()
		if s.churn != nil {
			// The next event is the earlier of the next arrival and the
			// next availability change; an exact tie processes the
			// availability change first. (A drop tied with an arrival
			// does not defer it — onDrop only defers jobs with
			// finish > drop time, so an update that is already due
			// merges before its client goes dark.)
			if at, ok := s.churn.next(); ok && (j == nil || at <= j.finish) {
				if at > s.now {
					s.now = at
				}
				continue
			}
		}
		if j == nil {
			return true, fmt.Errorf("core: runtime stalled: no client in flight and none dispatchable (offline clients with no rejoin scheduled cannot return)") //fedtripvet:allow cold terminal error path
		}
		heap.Pop(&r.inflight)
		if j.finish > s.now {
			s.now = j.finish
		}
		// Every processed arrival is credited, in virtual-time order and
		// whatever becomes of its update: its FLOPs and wire bytes — a
		// dropped one's too, since the work was done and the bytes moved.
		s.flopsTotal += j.flops
		s.rec.addWire(j.downBytes + j.upBytes)
		if !r.gated {
			// An online client is idle again; an offline one rejoins the
			// idle set at its rejoin event.
			s.pop.arrived(j.c.ID, s.online(j.c.ID))
		}
		r.arrive(j)
		if j.dropped {
			// The device died mid-flight: the update is lost. Its FLOPs
			// stay metered (the work was burned before the drop); arrive
			// returned its upload, and the job goes back too.
			s.rec.res.DroppedUpdates++
			s.recycleJob(j)
		} else {
			r.buffer = append(r.buffer, j) //fedtripvet:allow grows once to the merge policy's buffer size, then reused at [:0]
		}
		if r.gated {
			// A lock-step round merges what survived once its last job has
			// arrived or been voided, in dispatch order; only then are its
			// clients idle again, in that order too.
			if len(r.buffer) == 0 || r.inflight.Len() > 0 {
				continue
			}
			slices.SortFunc(r.buffer, func(a, b *trainJob) int { return a.seq - b.seq })
			for _, bj := range r.buffer {
				s.pop.arrived(bj.c.ID, s.online(bj.c.ID))
			}
		} else if !s.spec.Policy.ReadyToMerge(len(r.buffer)) {
			continue
		}

		t := s.rec.res.Rounds + 1
		s.updScratch = grow(s.updScratch, len(r.buffer))
		updates := s.updScratch
		for i, bj := range r.buffer {
			u := bj.update
			u.Staleness = t - bj.round
			if u.Staleness < 0 {
				u.Staleness = 0
			}
			updates[i] = u
		}
		r.retire()
		done, err := s.finishRound(updates)
		// The merge may read a patched update against its job's global, so
		// the round's jobs let go of their versions only now.
		for _, bj := range r.buffer {
			r.release(bj)
			s.recycleJob(bj)
		}
		r.buffer = r.buffer[:0]
		return done, err
	}
}
