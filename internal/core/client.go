package core

import (
	"unsafe"

	"repro/internal/flops"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// Client is one federated participant. It owns only what must survive
// between its participations: its private data indices, the method's
// persistent state and the transport's error-feedback residual (or the
// recipe chain that rebuilds them), its FLOP meter, and its deterministic
// random stream.
// The heavy training machinery (model, optimizer, batch buffers) and
// everything that lives for one round (the received global model, the
// step count) belong to an engine the client borrows for the duration of
// one LocalTrain — a worker shard's, or the fleet's shared loaner outside
// the shard pool. What is the same for every
// client (configuration, |w|) is reached through the one fleet pointer.
// Keeping clients this thin is what lets a population of 10k+ exist in
// memory at once, and a client is built only when the run first needs
// it (Server.client): one that never trains costs the run its registry
// slot and a few words of population arrays, not a Client.
//
// Clients are trained concurrently by the server; a Client is confined to
// one goroutine at a time and owns all of its buffers while training.
type Client struct {
	// ID is the client's index in the population.
	ID int
	// Indices are the client's sample indices in the training set.
	Indices []int
	// Counter meters this client's training FLOPs (model forward/backward
	// plus the method's attaching operations).
	Counter *flops.Counter

	// LastRound is the round of the client's previous participation
	// (0 if never). FedTrip's staleness factor xi derives from it.
	LastRound int

	// rng is the client's stream, seeded when the client is built
	// (Server.client): mini-batch shuffling, dropout masks, the method's
	// sampling and a noise fault's draws.
	rng prng.Rand
	// state backs State: the method's rows, nil until it first asks.
	state []float64
	// resid is the transport's error-feedback residual, one |w| row the
	// transport writes through WireTransport.UpInto: nil until the
	// client's first accepted upload under error feedback, and nil while
	// the client's recipe chain rebuilds it (lazyrows.go).
	resid []float64

	// labelFlip is a label-flipping Byzantine client's fixed rotation
	// offset (adversary.go): every training label y becomes
	// (y+labelFlip) mod Classes. 0 (honest) leaves batches untouched.
	labelFlip int32
	// recipe is 1 + the slot of the newest link of the recipe chain the
	// fleet's rowStore holds in place of the method's rows, one link per
	// participation (lazyrows.go), 0 when the rows, if any, are in state.
	recipe int32

	// eng is the engine currently attached (nil when idle). loan is what
	// the client's fleet shares: the configuration, |w|, and the engine
	// for work outside the shard pool.
	eng  *engine
	loan *engineLoaner
}

// clientCell is a built client and the FLOP meter its Counter points at,
// allocated together.
type clientCell struct {
	Client
	counter flops.Counter
}

// slabChunk is how many cells one slab chunk holds: the most that still
// make a small allocation (32 KiB), so a chunk wastes no page tail.
const slabChunk = 32 << 10 / int(unsafe.Sizeof(clientCell{}))

// clientSlab hands out client cells a chunk at a time, so building a
// client allocates once per chunk rather than once for the client and
// again for its meter.
type clientSlab struct {
	free  []clientCell // the newest chunk's unused cells
	cells int          // cells in every chunk so far
	built int          // cells handed out
}

// cell returns a zeroed cell, allocating a chunk of at most slabChunk
// when the last is used up, and never more than left, the clients still
// unbuilt.
func (sl *clientSlab) cell(left int) *clientCell {
	if len(sl.free) == 0 {
		sl.free = make([]clientCell, min(slabChunk, left))
		sl.cells += len(sl.free)
	}
	c := &sl.free[0]
	sl.free = sl.free[1:]
	sl.built++
	return c
}

// engine returns the attached engine, borrowing the fleet's shared loaner
// when the client is not on a shard.
func (c *Client) engine() *engine {
	if c.eng != nil {
		return c.eng
	}
	return c.loan.borrow(c)
}

// Model returns the client's working model. During a server run this is
// the borrowed shard engine's model; outside one it is the fleet's
// loaner's. Parameters are only meaningful between a SetParams/LocalTrain
// and the end of the round that loaded them. Confinement: while a run is
// active, hooks may only call this (or any engine-backed method) for
// clients that are not in flight — an in-flight client's engine handoff is
// unsynchronized by design, like every other piece of its training state.
func (c *Client) Model() *nn.Model { return c.engine().model }

// NumSamples returns |D_k|, the client's data size (the aggregation weight
// numerator in Eq. 2).
func (c *Client) NumSamples() int { return len(c.Indices) }

// NumParams returns |w|.
func (c *Client) NumParams() int { return c.loan.numParams }

// State returns what the method keeps for this client from one
// participation to the next: rows vectors of NumParams() float64s, back to
// back (FedTrip's w_hist is State(1), SCAFFOLD's c_k and delta-c are
// State(2)). The first call allocates them zeroed, in one piece, and every
// later call returns the same storage, so a row never moves under a
// caller. A method asks for the same number of rows every time; a method
// that never calls State costs its clients nothing.
//
// In a run that merges fewer updates than it has clients, the rows are
// not kept at all: every participation in the regime is held as a
// recipe, the newest link of the client's chain, and its next dispatch
// replays the chain, rebuilding the rows bit for bit before the method
// can read them (lazyrows.go). A call from outside a round replays it
// too, on the fleet's loaner engine, and from then on the rows are
// stored like any other client's. Either way a method sees exactly the
// rows it wrote.
func (c *Client) State(rows int) []float64 {
	n := rows * c.NumParams()
	if e := c.eng; e != nil && e.recording {
		return e.rows(rows, n)
	}
	if c.recipe != 0 {
		c.loan.rows.rebuild(c)
	}
	if len(c.state) < n { // the first call (or a doctored stream's short state)
		c.state = make([]float64, n)
	}
	return c.state[:n]
}

// StateBytes reports the bytes the client's State holds: 0 until the
// method first asks, then 8 bytes per float64 of every row. Rows held as
// a recipe chain count as the rows its newest link rebuilds: this is the
// method's per-client cost, whatever the runtime keeps in their place.
func (c *Client) StateBytes() int {
	if c.recipe != 0 {
		return 8 * int(c.loan.rows.recipes[c.recipe-1].rows) * c.NumParams()
	}
	return 8 * cap(c.state)
}

// RoundGlobal returns the global model the client received this round:
// the very slice LocalTrainSteps was given (the model version's shared
// snapshot, or the engine's downlink buffer under a transport), which
// nothing writes between BeginRound and EndRound. Algorithms read their
// proximal anchor from it instead of keeping a copy; it is read-only, and
// nil outside a round.
func (c *Client) RoundGlobal() []float64 { return c.engine().roundGlobal }

// SetRoundGlobal records what RoundGlobal returns. LocalTrainSteps does
// it before BeginRound; code that drives an algorithm's hooks by hand
// (tests, analysis) calls it in LocalTrainSteps' place.
func (c *Client) SetRoundGlobal(global []float64) { c.engine().roundGlobal = global }

// RoundSteps returns how many mini-batch steps the client has completed
// in its current round — in EndRound, and after the round until the
// engine serves another, the number it ran in all. A device-budgeted
// client (LocalTrainSteps) runs fewer than its configuration implies, so
// a method that normalises by local steps (SCAFFOLD's option II) reads
// them here.
func (c *Client) RoundSteps() int { return c.engine().roundSteps }

// Config returns the run configuration (read-only for algorithms).
func (c *Client) Config() *Config { return c.loan.cfg }

// RNG exposes the client's deterministic random source (mini-batch
// shuffling, dropout, method-specific sampling, a noise fault's draws).
// The stream is keyed to the client, not to the worker that happens to
// train it, which is why trajectories do not depend on the shard count.
func (c *Client) RNG() *prng.Rand { return &c.rng }

// drawn reports whether c's stream has moved from its seed: whether c has
// trained, since every training draws (randPermInto's first draw is
// Intn(1), which draws).
func (c *Client) drawn() bool {
	return c.rng.State() != prng.State{S: uint64(streamSeed(c.loan.cfg.Seed, streamClient, c.ID))}
}

// ScratchModels returns two scratch model instances with the same
// architecture as the client's model. MOON loads the global and historical
// parameters into them for its extra forward passes; FedGKD loads its
// teacher. They belong to the borrowed engine (their parameters carry no
// client state between rounds) and their FLOPs are metered on the
// client's counter.
func (c *Client) ScratchModels() (*nn.Model, *nn.Model) {
	return c.engine().scratch()
}

// LocalTrain runs one participating round: load the global model, run E
// local epochs of mini-batch SGD with the method's hooks, record the
// round as the client's last, and return the upload.
//
//fedtripvet:hotpath
func (c *Client) LocalTrain(round int, global []float64) Update {
	return c.LocalTrainSteps(round, global, 0)
}

// LocalTrainSteps is LocalTrain with a mini-batch step budget: maxSteps
// caps the total steps across the round's local epochs (0 = no cap).
// The device-heterogeneity runtime uses it to make a slow client train
// proportionally fewer steps before its (deadline-style) upload; what it
// actually ran is RoundSteps during the round and Update.Steps after it.
// A budget equal to the round's full step count draws and trains exactly
// like LocalTrain.
//
//fedtripvet:hotpath
func (c *Client) LocalTrainSteps(round int, global []float64, maxSteps int) Update {
	if c.recipe != 0 {
		// Trained by hand, outside the run's jobs (which take the chain
		// at dispatch): the rows are rebuilt before the round borrows the
		// engine a rebuild would run on.
		c.loan.rows.rebuild(c)
	}
	u := c.trainRound(round, global, maxSteps)
	// The upload buffer is checked out of the shared pool; the server's
	// merge path returns it once the aggregation has consumed it
	// (recycleUpdates), making the steady-state upload cycle
	// allocation-free. Callers outside a server run that drop the Update
	// on the floor merely forgo recycling.
	u.Params, u.pooled = paramsPool.getCopy(c.eng.model.Params()), true
	return u
}

// trainRound is LocalTrainSteps up to the upload: it trains the round
// and returns its update with no parameters, which are the engine
// model's until the client detaches.
//
//fedtripvet:hotpath
func (c *Client) trainRound(round int, global []float64, maxSteps int) Update {
	meanLoss := c.train(round, global, maxSteps)
	c.LastRound = round
	return Update{
		ClientID:   c.ID,
		NumSamples: len(c.Indices),
		Steps:      c.eng.roundSteps,
		TrainLoss:  meanLoss,
	}
}

// train is the body of LocalTrainSteps, up to and including the method's
// EndRound: the trained parameters are the engine model's, and the mean
// training loss is returned. A replay (lazyrows.go) runs it alone.
//
//fedtripvet:hotpath
func (c *Client) train(round int, global []float64, maxSteps int) float64 {
	cfg := c.loan.cfg
	algo := cfg.Algo
	e := c.engine()
	e.model.SetParams(global)
	e.opt.Reset()
	e.roundGlobal = global
	e.roundSteps = 0
	algo.BeginRound(c, round, global)
	fg, hasFG := algo.(FeatureGradder)
	lg, hasLG := algo.(LogitGradder)
	rng := c.RNG()
	e.model.SetMaskRNG(rng)

	var lossSum float64
	var batches int
	n := len(c.Indices)
	if cap(e.idx) < cfg.BatchSize {
		e.idx = make([]int, 0, cfg.BatchSize) //fedtripvet:allow engine scratch, grows once to the batch size
	}
	idx := e.idx[:0]
	for ep := 0; ep < cfg.LocalEpochs; ep++ {
		if maxSteps > 0 && e.roundSteps >= maxSteps {
			break
		}
		perm := randPermInto(rng, e.perm, n)
		e.perm = perm
		for start := 0; start < n; start += cfg.BatchSize {
			if maxSteps > 0 && e.roundSteps >= maxSteps {
				break
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			idx = idx[:0]
			for _, p := range perm[start:end] {
				idx = append(idx, c.Indices[p]) //fedtripvet:allow e.idx is pooled with capacity >= BatchSize, ensured above
			}
			e.ensureBatch(len(idx))
			cfg.Train.FillBatch(e.batchX, e.batchY, idx)
			if c.labelFlip != 0 {
				rotateLabels(e.batchY, int(c.labelFlip), cfg.Model.Classes)
			}

			logits := e.model.Forward(e.batchX, true)
			lossSum += nn.SoftmaxCrossEntropy(logits, e.batchY, e.dLogits)
			batches++

			if hasLG {
				lg.LogitGrad(c, e.batchX, e.batchY, logits, e.dLogits)
			}
			var extra *tensor.Tensor
			if hasFG {
				feat := e.model.Features()
				if e.featGrad == nil || !tensor.SameShape(e.featGrad, feat) {
					e.featGrad = tensor.New(feat.Shape()...)
				}
				if fg.FeatureGrad(c, e.batchX, e.batchY, feat, e.featGrad) {
					extra = e.featGrad
				}
			}
			e.model.ZeroGrad()
			e.model.Backward(e.dLogits, extra)
			algo.TransformGrad(c, round, e.model.Params(), e.model.Grads())
			if cfg.ClipNorm > 0 {
				clipToNorm(e.model.Grads(), cfg.ClipNorm)
			}
			e.opt.Step(e.model.Params(), e.model.Grads())
			e.roundSteps++
		}
	}
	algo.EndRound(c, round)
	e.roundGlobal = nil
	if batches == 0 {
		return 0
	}
	return lossSum / float64(batches)
}

// clipToNorm rescales g in place so ||g|| <= maxNorm.
func clipToNorm(g []float64, maxNorm float64) {
	n := tensor.Norm2(g)
	if n > maxNorm {
		tensor.Scale(maxNorm/n, g)
	}
}

// FullGrad computes the full-batch gradient of the client's empirical risk
// at the given parameters (used by FedDANE / MimeLite / SCAFFOLD-style
// methods). The model's parameters are restored afterwards. The cost — one
// forward+backward over all local data — lands on the client's FLOP
// counter, matching the n(FP+BP) term of Appendix A.
//
// The returned slice is freshly allocated and safe to retain. Hot paths
// that call this every pre-round should keep a reusable buffer and call
// FullGradInto instead.
func (c *Client) FullGrad(at []float64) []float64 {
	grad := make([]float64, c.NumParams())
	c.FullGradInto(grad, at)
	return grad
}

// FullGradInto is FullGrad writing into dst (length NumParams()), using
// engine-owned scratch for everything else, so repeated gradient
// exchanges allocate nothing.
func (c *Client) FullGradInto(dst, at []float64) {
	e := c.engine()
	if cap(e.fgSaved) < e.model.NumParams() {
		e.fgSaved = make([]float64, e.model.NumParams())
	}
	saved := e.fgSaved[:e.model.NumParams()]
	copy(saved, e.model.Params())
	e.model.SetParams(at)
	tensor.ZeroVec(dst)
	n := len(c.Indices)
	cfg := c.loan.cfg
	bs := cfg.BatchSize
	if cap(e.idx) < bs {
		e.idx = make([]int, 0, bs)
	}
	idx := e.idx[:0]
	for start := 0; start < n; start += bs {
		end := start + bs
		if end > n {
			end = n
		}
		idx = append(idx[:0], c.Indices[start:end]...)
		e.ensureBatch(len(idx))
		cfg.Train.FillBatch(e.batchX, e.batchY, idx)
		logits := e.model.Forward(e.batchX, false)
		nn.SoftmaxCrossEntropy(logits, e.batchY, e.dLogits)
		e.model.ZeroGrad()
		e.model.Backward(e.dLogits, nil)
		// SoftmaxCrossEntropy mean-reduces per batch; reweight so the sum
		// over batches is the mean over all n samples.
		tensor.Axpy(float64(len(idx))/float64(n), e.model.Grads(), dst)
	}
	e.model.SetParams(saved)
}
