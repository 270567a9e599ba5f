package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// Result summarises a federated run (synchronous or asynchronous; for the
// async runtime "round" means one buffered aggregation).
type Result struct {
	// Algorithm is the method's registry name.
	Algorithm string
	// Rounds actually executed.
	Rounds int
	// Accuracy[t] is the global model's test accuracy after round t+1.
	// Rounds skipped by EvalEvery carry the last evaluated value forward
	// (0 before the first evaluation).
	Accuracy []float64
	// TrainLoss[t] is the mean local training loss across the selected
	// clients in round t+1.
	TrainLoss []float64
	// GFLOPsByRound[t] is the cumulative training cost (all clients'
	// forward+backward+attaching FLOPs) through round t+1, in GFLOPs.
	GFLOPsByRound []float64
	// CommBytesByRound[t] is the cumulative client<->server traffic
	// through round t+1: the bytes the transfers of every processed
	// dispatch returned — one whose update a permanent drop voided
	// included — plus analytic method extras. Without a Transport, or
	// through a legacy one that reports no sizes, a transfer counts its
	// dense float32 size, the paper's 4·|w|.
	CommBytesByRound []int64
	// SimTimeByRound[t] is the simulated wall-clock time (seconds under
	// the configured latency, device and network models) at the end of
	// round t+1. Filled for every run; all zeros when nothing prices the
	// clock (RuntimeSync, or barrier/async at zero latency).
	SimTimeByRound []float64
	// MeanStalenessByRound[t] is the mean staleness (aggregations elapsed
	// since dispatch) of the updates merged in round t+1. Filled for
	// every run; all zeros in the lock-step runtimes.
	MeanStalenessByRound []float64
	// DroppedUpdates counts in-flight updates lost to permanently
	// dropped clients (the churn process's mass-dropout injector). Their
	// training FLOPs still meter — the device burned them before dying —
	// but nothing was merged.
	DroppedUpdates int
	// RejectedUpdates counts uploads the merge path zero-weighted out for
	// being non-finite (divergence, nan/crash faults). Unlike a dropped
	// update, a rejected one arrived — its FLOPs and wire bytes are in
	// the totals — but the server refused to let it touch the model.
	RejectedUpdates int
	// TargetAccuracy echoes the config; RoundsToTarget is the first round
	// whose evaluation reached it, found at Finish (-1 until then, and if
	// never reached).
	TargetAccuracy float64
	RoundsToTarget int
	// BestAccuracy is the highest test accuracy observed (Fig. 7 metric).
	BestAccuracy float64
	// FinalAccuracy is the mean accuracy over the last up-to-10
	// actually-evaluated rounds (Fig. 6 metric). Rounds that EvalEvery
	// skipped do not contribute — carrying stale values forward would
	// bias the mean toward whatever round happened to precede a gap.
	FinalAccuracy float64
}

// TotalGFLOPs returns the cumulative training cost of the whole run.
func (r *Result) TotalGFLOPs() float64 {
	if len(r.GFLOPsByRound) == 0 {
		return 0
	}
	return r.GFLOPsByRound[len(r.GFLOPsByRound)-1]
}

// GFLOPsToTarget returns the cumulative cost through the round that
// reached the target accuracy (Table V), or the full-run cost if the
// target was never reached.
func (r *Result) GFLOPsToTarget() float64 {
	if r.RoundsToTarget > 0 && r.RoundsToTarget <= len(r.GFLOPsByRound) {
		return r.GFLOPsByRound[r.RoundsToTarget-1]
	}
	return r.TotalGFLOPs()
}

// CommBytesToTarget returns cumulative traffic through the target round
// (or the whole run if the target was never reached).
func (r *Result) CommBytesToTarget() int64 {
	if r.RoundsToTarget > 0 && r.RoundsToTarget <= len(r.CommBytesByRound) {
		return r.CommBytesByRound[r.RoundsToTarget-1]
	}
	if len(r.CommBytesByRound) == 0 {
		return 0
	}
	return r.CommBytesByRound[len(r.CommBytesByRound)-1]
}

// Digest returns a short hex fingerprint over every metric series at
// full bit precision (FNV-1a over the float64 bit patterns). Two runs
// have equal digests exactly when their trajectories are bit-for-bit
// identical — the CI kill/resume smoke test compares an uninterrupted
// run against snapshot+resume with it.
func (r *Result) Digest() string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(r.Rounds))
	u64(uint64(r.DroppedUpdates))
	u64(uint64(r.RejectedUpdates))
	u64(uint64(int64(r.RoundsToTarget)))
	f64(r.BestAccuracy)
	f64(r.FinalAccuracy)
	for _, s := range [][]float64{r.Accuracy, r.TrainLoss, r.GFLOPsByRound, r.SimTimeByRound, r.MeanStalenessByRound} {
		u64(uint64(len(s)))
		for _, v := range s {
			f64(v)
		}
	}
	u64(uint64(len(r.CommBytesByRound)))
	for _, v := range r.CommBytesByRound {
		u64(uint64(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TimeToTarget returns the simulated wall-clock time at which the target
// accuracy was reached, or the full-run time if it never was (0 when the
// run has no simulated clock).
func (r *Result) TimeToTarget() float64 {
	if len(r.SimTimeByRound) == 0 {
		return 0
	}
	if r.RoundsToTarget > 0 && r.RoundsToTarget <= len(r.SimTimeByRound) {
		return r.SimTimeByRound[r.RoundsToTarget-1]
	}
	return r.SimTimeByRound[len(r.SimTimeByRound)-1]
}

// Server is one federated run: the resolved spec, the global model, the
// client population, and — on a run built by NewRunState or Resume — the
// runtime state (virtual clock, scheduler registry, recorder, shard pool,
// job free list, churn process). A bare NewServer leaves that runtime
// state unbuilt and its zero policy merges as fedavg.
type Server struct {
	// spec is the run as Validate resolved it (policy, defaults). The
	// shard engines and the client loaner hold &spec.Config.
	spec RunSpec
	// clients is the population, indexed by ID: a client is nil until the
	// run first needs it (client), and is then built from slab.
	clients []*Client
	slab    clientSlab
	// loan is what every client shares (engineLoaner).
	loan   *engineLoaner
	global []float64
	eval   *tester
	rng    *prng.Rand
	// faults is the per-client fault assignment (installFaults; nil in
	// honest runs). A fault keeps no state of its own: a noise client
	// draws from its own stream.
	faults []faultClass
	// rejectedUpdates counts non-finite uploads screened out of merges
	// (mirrored into Result.RejectedUpdates each round); rejectLogged
	// makes the warning one-shot.
	rejectedUpdates int
	rejectLogged    bool
	// widenScratch is where Server.hold codes a version's downlink and
	// the snapshot widens a float32 version, allocated by the first that
	// needs it. The merge needs no |w|-sized scratch: it reads and merges
	// a block of entries at a time (mergeBlocks), the weighted mean into
	// blockSum through blockX, a robust merge into blockSum through
	// robBlock.
	widenScratch     []float64
	blockSum, blockX [chunkLen]float64
	// Per-round scratch reused across the run (all touched only from the
	// single-threaded round/event loop): selection permutation and picks,
	// gathered updates, and aggregation weights.
	selPerm    []int
	selPicks   []*Client
	updScratch []Update
	aggWeights []float64
	// Merge scratch (adversary.go): one reader per buffered update; a
	// robust merge's block of every admitted update (k × chunkLen, a
	// dense update's own slice in robRows), its per-coordinate column,
	// and krum's distance matrix, scores and picks.
	mergeRd  []mergeRead
	robBlock []float64
	robRows  [][]float64
	robCol   []float64
	robDist  []float64
	robScore []float64
	robPick  []int
	// wire is the configured Transport as the runtime calls it (nil
	// without one), resolved once at construction.
	wire WireTransport
	// rows holds the recipe chains that stand for the method's rows in
	// the lazy regime (lazyrows.go); the clients reach it through their
	// loaner.
	rows *rowStore
	// chunks holds the run's bitmap patches (nil over a transport), and
	// denseUploads holds every upload dense instead (a differential
	// test's twin run).
	chunks       *chunkStore
	denseUploads bool
	// versions is what the run's float32 model versions are made of
	// (globalSnap).
	versions blockStore

	// The runtime (newRunState). rec's Result counts the completed
	// rounds; sp trains the jobs, one engine per shard.
	rec *recorder
	sp  *shardPool
	// now is the virtual clock, in simulated seconds.
	now float64
	// latRng is the latency stream, kept apart from the selection stream
	// (rng) so pricing a run never changes who is selected.
	latRng *prng.Rand
	pop    *population
	// churn is the fleet availability process (nil without RunSpec.Churn).
	churn *churn
	// flopsTotal is the cumulative metered training cost of every
	// processed arrival plus the lock-step PreRound passes.
	flopsTotal int64
	// derive is the scratch RNG behind stateless per-client derivation:
	// device speeds (spec.Devices) and link profiles (spec.Network) are
	// recomputed per dispatch/arrival by re-seeding it from the client's
	// indexed stream, instead of materializing fleet-wide arrays. Event-
	// loop-only (never touched by shard workers).
	derive prng.Rand
	// free is the event loop's trainJob free list: jobs recycle once their
	// update merges (or is voided by a permanent drop), so steady-state
	// dispatch allocates neither jobs nor done channels.
	free []*trainJob
}

// NewServer builds the initial global model and the population's
// registry. A client is built only when the run first needs it, and is a
// thin entry (data handle, history, meter) — the training machinery
// lives in per-shard engines — so populations of 100k+ construct in
// milliseconds and idle clients cost a pointer each.
func NewServer(cfg Config) (*Server, error) {
	return newServer(RunSpec{Config: cfg})
}

// newServer builds a server for sp, whose Config it validates; the rest
// of sp is taken as given (RunSpec.Validate resolved it, or it is the
// bare NewServer spec).
func newServer(sp RunSpec) (*Server, error) {
	if err := sp.Config.Validate(); err != nil {
		return nil, err
	}
	s := &Server{spec: sp}
	cfg := &s.spec.Config
	eval, err := newTester(cfg)
	if err != nil {
		return nil, err
	}
	s.eval = eval
	s.global = eval.model.ParamsCopy()
	s.rng = seedStream(cfg.Seed, streamSelection)
	s.wire = wireTransport(cfg.Transport)
	s.rows = &rowStore{}
	s.loan = &engineLoaner{cfg: cfg, numParams: len(s.global), rows: s.rows}
	s.clients = make([]*Client, len(cfg.Parts))
	return s, nil
}

// client returns client id, building it the first time the run needs it:
// at its first dispatch or lock-step selection, for a snapshot's
// in-flight job or record of it, or for Clients.
func (s *Server) client(id int) *Client {
	if c := s.clients[id]; c != nil {
		return c
	}
	c := s.build(s.slab.cell(len(s.clients)-s.slab.built), id)
	s.clients[id] = c
	return c
}

// build fills cell with client id as it stands before it first trains:
// its stream at its seed, a label-flipping client's rotation derived
// from its fault class.
func (s *Server) build(cell *clientCell, id int) *Client {
	cell.Client = Client{
		ID:        id,
		Indices:   s.spec.Parts[id],
		Counter:   &cell.counter,
		labelFlip: s.labelFlip(id),
		loan:      s.loan,
	}
	cell.rng.Reseed(streamSeed(s.spec.Seed, streamClient, id))
	return &cell.Client
}

// Global returns the current global parameter vector (live slice).
func (s *Server) Global() []float64 { return s.global }

// idle reports whether the cell holds the record of a client that has
// never trained: no rows or chain, no residual, no last round, no stream
// drawn and no FLOPs metered.
func (cell *clientCell) idle() bool {
	c := &cell.Client
	return c.recipe == 0 && c.state == nil && c.resid == nil && c.LastRound == 0 && !c.drawn() && cell.counter.Total() == 0
}

// adopt builds the client whose record a snapshot wrote into tmpl and
// moves the record into it.
func (s *Server) adopt(tmpl *clientCell) {
	c := s.client(tmpl.ID)
	c.state, c.resid, c.LastRound, c.rng, c.recipe = tmpl.state, tmpl.resid, tmpl.LastRound, tmpl.rng, tmpl.recipe
	c.Counter.Add(tmpl.counter.Total())
}

// Clients returns the whole population, building every client the run
// has not: O(N) in time and memory, for tests, the Fig. 2 harness and
// probes, never the event loop. Building a client early changes no
// trajectory.
func (s *Server) Clients() []*Client {
	for id := range s.clients {
		s.client(id)
	}
	return s.clients
}

// selectClients draws K distinct clients uniformly at random, matching the
// paper's random selection: the first K online clients of a uniform
// permutation of the whole fleet — the first K without churn, and all
// that are online when fewer are. Config.Validate rejects K > N at
// construction; running out of permutation is defence in depth, so a
// mutated config degrades to full participation instead of an
// index-out-of-range panic. The returned slice is server scratch, valid
// until the next call.
func (s *Server) selectClients() []*Client {
	k := s.spec.ClientsPerRound
	s.selPerm = randPermInto(s.rng, s.selPerm, len(s.clients))
	if cap(s.selPicks) < k {
		s.selPicks = make([]*Client, 0, k)
	}
	sel := s.selPicks[:0]
	for _, id := range s.selPerm {
		if len(sel) == k {
			break
		}
		if s.online(id) {
			sel = append(sel, s.client(id))
		}
	}
	s.selPicks = sel
	return sel
}

// trainClient runs one client's participating round: ship the global model
// through the transport, train locally, ship the upload back. It is the
// body of every job the event loop dispatches onto the shard pool
// (distinct clients own all their state; the engine is attached by the
// shard), and fills the job's update and wire bytes. j.steps caps the
// local mini-batch steps (zero outside device-heterogeneity runs).
//
// The wire bytes are this dispatch's: what the transport returned, or the
// analytic dense float32 size (4 bytes/param each way) without one. The
// network pricer (RunSpec.Network) derives the dispatch's transfer
// durations from them.
//
// With a transport the client trains from the shard engine's downlink
// buffer, which then serves as the upload's delta reference, and the
// upload is rounded in place in its pooled buffer, next to the client's
// error-feedback row; without one it trains from j.global itself. The
// upload is then held compact until the merge reads it, and its buffer
// goes straight back to the pool. Over a transport: as the job's patch
// when it differs from the float32 image of j.global in at most a
// quarter of its entries (a sparse uplink's), narrowed to a float32
// vector when every entry is exact in float32 (an f32 uplink's).
// Without one, an upload no fault corrupts: as a bitmap patch against
// j.global when that takes fewer bytes than the upload and the version
// stays alive anyway — the job's recorded participation pins it, or it
// is s.global behind the lock-step gate — so holding the patch pins
// nothing more. Any other upload stays |w| float64s.
//
// A participation recorded as the newest link of its client's chain
// first replays the chain, which leaves the rows (and the error-feedback
// row the chain stands for) in engine scratch, and writes its own there
// on top of them (lazyrows.go).
func (s *Server) trainClient(j *trainJob) {
	c := j.c
	if j.record {
		s.rows.replay(c, c.eng, j.chain)
		j.recRng = c.RNG().State()
		c.eng.record()
	}
	global, img, n := j.global, (*image32)(nil), len(j.global)
	if global == nil {
		img, n = &j.gsnap.img, j.gsnap.img.n // the version is held as its float32 image
	}
	j.downBytes = int64(4 * n)
	if s.wire != nil {
		received := c.eng.downlinkBuf(n)
		if img != nil {
			global = img.widen(received)
		}
		j.downBytes = s.wire.DownInto(received, c.ID, j.round, global)
		global = received
	}
	u := c.trainRound(j.round, global, j.steps)
	if j.record {
		j.recRows = c.eng.recorded()
	}
	trained := c.eng.model.Params()
	j.upBytes = int64(4 * len(trained))
	if s.bitmapped(j) {
		// Compared with its version where training left it, and copied
		// only if it stays dense.
		if u.bitmap = s.chunks.holdBits(trained, j.global); u.bitmap != nil {
			u.base = j.global
			j.update = u
			return
		}
	}
	u.Params, u.pooled = paramsPool.getCopy(trained), true
	// Byzantine corruption happens here — after training (the FLOPs were
	// really burned) and before the transport encodes the upload (the
	// corrupted vector is what rides, and prices, the wire). Downstream
	// the fault flows through staleness, churn, and buffering exactly
	// like an honest update.
	s.applyFault(c, &u)
	if s.wire != nil {
		resid := &c.resid
		if j.record && j.recRows > 0 && s.rows.coder != nil {
			// The chain rebuilds this upload's row too: the replay left
			// the row as it stood in engine scratch, the upload updates it
			// there, and the client keeps none.
			resid = &c.eng.residRow
		}
		j.upBytes = s.wire.UpInto(u.Params, c.ID, j.round, u.Params, global, resid)
		// Compared with the version's image where it lies: a transport
		// may send each client something other than the image.
		var sparse, exact bool
		if img != nil {
			sparse, exact = compact(&j.patch, u.Params, img)
		} else {
			sparse, exact = compact(&j.patch, u.Params, flat(j.global))
		}
		switch {
		case sparse:
			paramsPool.put(u.Params)
			u.Params, u.pooled = nil, false
			u.patch, u.base, u.base32 = &j.patch, j.global, img
		case exact:
			u.holdNarrow()
		}
	}
	j.update = u
}

// bitmapped reports whether j's upload may be held as a bitmap patch
// against j.global: it goes over no transport, no fault corrupts it
// (a corrupted upload differs from its version nearly everywhere), and
// the version stays alive anyway — j's recorded participation pins it,
// or, behind the lock-step gate, it is s.global itself.
func (s *Server) bitmapped(j *trainJob) bool {
	return s.chunks != nil && !s.denseUploads && !s.corrupts(j.c) && (j.gsnap == nil || j.record && j.recRows > 0)
}

// aggregate merges one round's updates. An Algorithm's Aggregator
// override wins (it sees Update.Staleness, and every update widened to
// Params); otherwise the run's aggregation policy supplies the weights
// and the merge rate. Validate rejects Aggregator methods in buffered
// mode, so the override branch is only reachable behind the lock-step
// gate, where no client is in flight.
func (s *Server) aggregate(round int, updates []Update) {
	if agg, ok := s.spec.Algo.(Aggregator); ok {
		for i := range updates {
			updates[i].widen()
		}
		next := agg.Aggregate(round, s.global, updates)
		copy(s.global, next)
		return
	}
	s.aggWeights = grow(s.aggWeights, len(updates))
	weights := s.aggWeights
	for i, u := range updates {
		weights[i] = s.spec.Policy.Weight(u)
	}
	s.aggregateWeightedRate(weights, updates, s.spec.Policy.MergeRate(round, updates))
}

// aggregateWeightedRate normalises the given weights, forms the weighted
// average of the updates, and moves the global model toward it by the
// server learning rate eta: global' = global + eta*(avg - global). Every
// policy merge funnels through it (a rate of exactly 1 takes the
// replace-with-average path). A
// fully-discounted buffer (all weights 0 — e.g. a hard staleness cutoff,
// or every update rejected as non-finite) or a zero rate contributes
// nothing rather than dividing the model into NaNs.
//
// Before any weight is consumed the buffer passes the graceful-
// degradation screen (screenUpdates): non-finite uploads are
// zero-weighted and counted, surviving updates are norm-clipped when a
// clip guard is configured. A robust policy (median/trimmed mean/krum)
// then replaces the weighted average with its estimator over the
// admitted updates, at the same merge rate.
//
// The weighted average is tensor.WeightedSumInto's ZeroVec and in-order
// axpy, run one update at a time through its reader (mergeRead), and the
// sum is the dense one bit for bit. It runs a block of entries at a time
// (mergeBlocks), as the robust merges do: each update's block is read —
// a compact one's widened into block scratch — and added, and only then
// does the global's block move, since a lock-step patch reads the global
// as its base, and a clip reads it too.
func (s *Server) aggregateWeightedRate(weights []float64, updates []Update, eta float64) {
	s.screenUpdates(weights, updates)
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 || eta == 0 {
		return
	}
	if s.spec.Policy.robust() {
		s.mergeRobust(weights, eta)
		return
	}
	for i := range weights {
		weights[i] /= total
	}
	s.mergeBlocks(weights, eta)
}

// mergeBlocks is the weighted average of the buffer and the global's move
// toward it, a block of entries at a time, so it needs no |w|-sized
// scratch: the entries of each block are summed in update order as the
// whole-vector sum adds them, and the global's block moves (moveBlock)
// once every update's block is read.
//
//fedtripvet:hotpath
func (s *Server) mergeBlocks(weights []float64, eta float64) {
	for lo := 0; lo < len(s.global); lo += chunkLen {
		hi := min(lo+chunkLen, len(s.global))
		avg := s.blockSum[:hi-lo]
		tensor.ZeroVec(avg)
		for i := range s.mergeRd {
			if weights[i] != 0 {
				tensor.Axpy(weights[i], s.mergeRd[i].block(lo, hi, s.blockX[:], s.global), avg)
			}
		}
		s.moveBlock(lo, avg, eta)
	}
}

// EvaluateGlobal computes test accuracy of the current global model.
func (s *Server) EvaluateGlobal() float64 {
	return s.eval.accuracy(s.global)
}

// recorder accumulates per-round metrics into a Result. It is the half of
// the round machinery shared verbatim by the synchronous and asynchronous
// runtimes, so the two produce directly comparable (and, in the async
// runtime's barrier mode, bit-for-bit identical) metric streams.
//
// Evaluation runs on the off-loop evaluator, one round at a time: record
// joins the outstanding evaluation, lists its accuracy and only then
// submits the next, so round t evaluates while round t+1 trains. finalize
// assembles the accuracy series and the rounds-to-target from the list.
type recorder struct {
	s             *Server
	res           *Result
	commPerClient int64
	extraComm     float64
	wirePending   int64
	ev            *evaluator
	pending       int       // round whose evaluation is outstanding, 0 when none
	evals         []evalAcc // every joined evaluation, in round order
	lastAcc       float64   // the accuracy the latest record reported
	finalized     bool
}

// evalAcc is one evaluated round's test accuracy.
type evalAcc struct {
	round int
	acc   float64
}

func newRecorder(s *Server) *recorder {
	r := &recorder{
		s: s,
		res: &Result{
			Algorithm:      s.spec.Algo.Name(),
			TargetAccuracy: s.spec.TargetAccuracy,
			RoundsToTarget: -1,
		},
		commPerClient: int64(4 * len(s.global)), // float32 transfer, one way
		ev:            newEvaluator(s.eval),
	}
	if cc, ok := s.spec.Algo.(CommCoster); ok {
		r.extraComm = cc.ExtraCommFactor()
	}
	return r
}

// addWire credits one processed dispatch's measured wire traffic
// (download + upload) to the next recorded round. The loop calls it as
// each arrival is processed in virtual-time order — including dropped
// arrivals, whose bytes moved even though nothing merged — which makes
// measured comm accounting deterministic (and snapshot/resume-exact): it
// depends on the event order, never on how far physical training has
// raced ahead of the virtual clock.
func (r *recorder) addWire(bytes int64) { r.wirePending += bytes }

// commDelta returns the traffic added by one round that merged nUpdates
// uploads: the bytes the transfers of every dispatch processed since the
// last round returned (accumulated via addWire; without a transport, or
// through a legacy one that reports no sizes, 4·|w| per transfer), plus
// the method's analytic extras such as control variates, which no
// transfer carries.
func (r *recorder) commDelta(nUpdates int) int64 {
	wire := r.wirePending
	r.wirePending = 0
	return wire + int64(float64(nUpdates)*r.extraComm*float64(r.commPerClient))
}

// record appends the metrics of one completed round t: mean training
// loss over the merged updates, cumulative communication, cumulative
// FLOPs, and (when due under EvalEvery, or on the final round) an
// evaluation submitted to the off-loop evaluator. It returns the newest
// joined accuracy for progress logging; the per-round accuracy series is
// assembled in finalize.
func (r *recorder) record(t, totalRounds int, updates []Update, flopsTotal int64) float64 {
	res := r.res
	var lossSum float64
	for _, u := range updates {
		lossSum += u.TrainLoss
	}
	res.TrainLoss = append(res.TrainLoss, lossSum/float64(len(updates)))
	res.RejectedUpdates = r.s.rejectedUpdates

	comm := r.commDelta(len(updates))
	if n := len(res.CommBytesByRound); n > 0 {
		comm += res.CommBytesByRound[n-1]
	}
	res.CommBytesByRound = append(res.CommBytesByRound, comm)
	res.GFLOPsByRound = append(res.GFLOPsByRound, float64(flopsTotal)/1e9)
	res.Rounds = t

	// The outstanding evaluation has had this round's training to finish
	// in, so the join seldom blocks.
	r.join()
	if t%r.s.spec.EvalEvery == 0 || t == totalRounds {
		// Snapshot from the shared pool; the evaluator recycles it once
		// the accuracy is computed.
		r.ev.submit(paramsPool.getCopy(r.s.global))
		r.pending = t
	}
	// The newest joined evaluation, not "whatever the evaluator happens to
	// have finished": identical runs print identical progress lines.
	if n := len(r.evals); n > 0 {
		r.lastAcc = r.evals[n-1].acc
	}
	return r.lastAcc
}

// join waits for the outstanding evaluation, if any, and lists its
// accuracy. Snapshot joins before it writes the list, so the stream holds
// every submitted round.
func (r *recorder) join() {
	if r.pending > 0 {
		r.evals = append(r.evals, evalAcc{r.pending, r.ev.join()})
		r.pending = 0
	}
}

// finalize joins the evaluator, stops it, and assembles the accuracy
// series: each round carries the last evaluated value forward (0 before
// the first evaluation), and the summary metrics are derived from the
// evaluated rounds only. Idempotent; every exit path of a run must reach
// it so the evaluator goroutine is released and partial results stay
// well-formed.
func (r *recorder) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true
	r.join()
	r.ev.stop()
	res := r.res
	acc, next := 0.0, 0
	res.Accuracy = res.Accuracy[:0]
	for t := 1; t <= res.Rounds; t++ {
		if next < len(r.evals) && r.evals[next].round == t {
			acc = r.evals[next].acc
			next++
			if r.s.spec.TargetAccuracy > 0 && res.RoundsToTarget < 0 && acc >= r.s.spec.TargetAccuracy {
				res.RoundsToTarget = t
			}
		}
		res.Accuracy = append(res.Accuracy, acc)
		if acc > res.BestAccuracy {
			res.BestAccuracy = acc
		}
	}
	if tail := r.evals[max(0, len(r.evals)-10):]; len(tail) > 0 {
		var sum float64
		for _, e := range tail {
			sum += e.acc
		}
		res.FinalAccuracy = sum / float64(len(tail))
	}
}

// finish completes the run's bookkeeping and returns the Result.
func (r *recorder) finish() *Result {
	r.finalize()
	return r.res
}
