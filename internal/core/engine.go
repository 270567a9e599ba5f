package core

import (
	"fmt"
	"repro/internal/flops"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// engine bundles the expensive, stateless-between-rounds machinery of
// local training: the working model, the local optimizer, the scratch
// models used by representation methods, and the reusable batch buffers.
//
// Before this type existed every Client owned its own engine-sized block of
// memory, which put a hard O(N * |w|) floor under the population size.
// Engines made that O(S * |w|) for S worker shards: a client checks an
// engine out for the duration of one LocalTrain and returns it afterwards.
// The checkout is safe because nothing in the engine carries information
// across rounds — LocalTrain overwrites the model parameters with the
// received global model, resets the optimizer, and the scratch models are
// fully re-loaded by the algorithms that use them (MOON, FedGKD) in
// BeginRound. Everything that does persist across a client's participations
// (LastRound, the method's State rows, the data-shuffling RNG) lives on the
// Client itself; what lives for one round (roundGlobal, roundSteps,
// downlink) lives here.
type engine struct {
	cfg   *Config
	model *nn.Model
	opt   optim.Optimizer
	// seedRng drives lazily built scratch-model initialisation. Scratch
	// parameters are always overwritten before use, so these draws never
	// influence a trajectory; a per-engine stream merely keeps construction
	// deterministic without touching any client's RNG.
	seedRng            *prng.Rand
	scratchA, scratchB *nn.Model
	// counter is the attached client's FLOP counter (nil when detached);
	// lazily built scratch models pick it up at construction time.
	counter *flops.Counter

	batchX   *tensor.Tensor
	batchY   []int
	dLogits  *tensor.Tensor
	featGrad *tensor.Tensor

	// perm and idx are the mini-batch shuffling buffers LocalTrain and
	// FullGrad reuse across rounds, and fgSaved parks the model parameters
	// around a FullGrad evaluation. All engine-lifetime scratch: nothing in
	// them survives a round, they only exist to keep the steady-state
	// training loop allocation-free.
	perm    []int
	idx     []int
	fgSaved []float64
	// roundGlobal backs Client.RoundGlobal: the global model the attached
	// client is training from, by reference, for the span of its round.
	roundGlobal []float64
	// roundSteps backs Client.RoundSteps: the mini-batch steps the attached
	// client has completed since LocalTrainSteps began its round.
	roundSteps int
	// downlink is where the transport writes what the attached client
	// receives (trainClient), or the codec writes it again for a replay
	// (lazyrows.go): the client trains from it and it is the upload's
	// delta reference, so it lives exactly one client round. nil in runs
	// without a transport.
	downlink []float64
	// recording sends the attached client's State rows to rowScratch
	// instead of the client: a participation's rows, which a recipe will
	// stand for, or a chain's rows being rebuilt (lazyrows.go). rowsAsked
	// counts the rows there: as many as the previous link of the chain
	// being replayed wrote, or 0 until the method first asks, which
	// zeroes them.
	recording  bool
	rowsAsked  int32
	rowScratch []float64
	// residRow is the error-feedback row of the client whose chain is
	// being replayed, when the chain rebuilds that row too: the replay
	// codes each link's upload again into it, and a recorded upload
	// updates it in place (trainClient). The transport's first such row,
	// reused as scratch.
	residRow []float64
}

// newEngine builds one training engine. seed determines the (irrelevant,
// always-overwritten) initial model parameters and the scratch-model seed
// stream; it only needs to be deterministic, not coordinated.
func newEngine(cfg *Config, seed int64) (*engine, error) {
	m, err := cfg.Model.Build(seed)
	if err != nil {
		return nil, err
	}
	e := &engine{
		cfg:     cfg,
		model:   m,
		seedRng: seedStream(seed, streamScratch),
	}
	if oc, ok := cfg.Algo.(OptimizerChooser); ok {
		e.opt = oc.NewOptimizer(cfg.LR, cfg.Momentum)
	} else {
		e.opt = optim.NewSGDMomentum(cfg.LR, cfg.Momentum)
	}
	return e, nil
}

// scratch returns the two scratch models, building them on first use.
func (e *engine) scratch() (*nn.Model, *nn.Model) {
	if e.scratchA == nil {
		a, err := e.cfg.Model.Build(e.seedRng.Int63())
		if err != nil {
			panic(fmt.Sprintf("core: scratch model: %v", err))
		}
		b, err := e.cfg.Model.Build(e.seedRng.Int63())
		if err != nil {
			panic(fmt.Sprintf("core: scratch model: %v", err))
		}
		a.SetCounter(e.counter)
		b.SetCounter(e.counter)
		e.scratchA, e.scratchB = a, b
	}
	return e.scratchA, e.scratchB
}

// ensureBatch sizes the reusable batch buffers for n samples, reusing
// backing capacity across sizes so alternating full and tail batches do
// not reallocate every epoch.
func (e *engine) ensureBatch(n int) {
	if e.batchX == nil {
		shape := append([]int{n}, e.model.InShape()...)
		e.batchX = tensor.New(shape...)
		e.batchY = make([]int, n)
		e.dLogits = tensor.New(n, e.model.OutDim())
		return
	}
	if e.batchX.Dim(0) != n {
		e.batchX.SetDim0(n)
		e.dLogits.SetDim0(n)
		if cap(e.batchY) >= n {
			e.batchY = e.batchY[:n]
		} else {
			e.batchY = make([]int, n)
		}
	}
}

// downlinkBuf returns the engine's n-element downlink buffer, contents
// unspecified.
func (e *engine) downlinkBuf(n int) []float64 {
	if cap(e.downlink) < n {
		e.downlink = make([]float64, n)
	}
	return e.downlink[:n]
}

// rows is Client.State while the engine is recording: rows rows of
// |w| = n/rows floats in rowScratch, zeroed at the first ask unless a
// replay left its rows there.
func (e *engine) rows(rows, n int) []float64 {
	if e.rowsAsked == 0 {
		e.rowsAsked = int32(rows)
		if cap(e.rowScratch) < n {
			e.rowScratch = make([]float64, n)
		}
		clear(e.rowScratch[:n])
	}
	return e.rowScratch[:n]
}

// record starts routing the attached client's rows to engine scratch,
// where they stay as the last replay (rowStore.replay) left them.
func (e *engine) record() { e.recording = true }

// recorded stops recording and returns how many rows the method wrote
// (0 if it kept none); they stay in rowScratch until the next record.
func (e *engine) recorded() int32 {
	e.recording = false
	return e.rowsAsked
}

// meter points the engine's FLOP metering at counter (nil: nowhere).
func (e *engine) meter(counter *flops.Counter) {
	e.counter = counter
	e.model.SetCounter(counter)
	if e.scratchA != nil {
		e.scratchA.SetCounter(counter)
		e.scratchB.SetCounter(counter)
	}
}

// attach points the engine's FLOP metering at the client about to train on
// it and hands the engine to the client for the duration of the round.
func (e *engine) attach(c *Client) {
	e.meter(c.Counter)
	c.eng = e
}

// detach releases the engine. The nil counter keeps any later misuse from
// silently crediting FLOPs to the wrong client (flops.Counter methods are
// nil-safe no-ops).
func (e *engine) detach(c *Client) {
	c.eng = nil
	e.meter(nil)
}

// engineLoaner is what every client of one fleet shares, behind the one
// pointer a Client holds: the run configuration, |w|, and the server's
// single shared engine for sequential server-side client work outside the
// shard pool — PreRound gradient exchanges (FedDANE's and MimeLite's
// FullGrad over the selected clients), analysis code walking the
// population, and tests driving clients directly. Routing those through
// one loaner caps them at one engine per server — per-client private
// engines would quietly rebuild the O(N * |w|) footprint the shard pool
// exists to avoid. Borrowing is server-goroutine-sequential by the same
// contract that makes PreRound single-threaded, so the loaner needs no
// lock.
type engineLoaner struct {
	cfg       *Config
	numParams int
	eng       *engine
	cur       *Client // most recent borrower
	// rows is the fleet's store of the recipes that stand for rows.
	rows *rowStore
}

// borrow attaches the loaner engine to c (building it on first use) and
// returns it. Only a borrower that still holds the loaner is detached on
// handover: a client that has since been attached to a shard engine (or
// already released) is left alone.
func (l *engineLoaner) borrow(c *Client) *engine {
	if l.eng == nil {
		e, err := newEngine(l.cfg, streamSeed(l.cfg.Seed, streamLoaner, 0))
		if err != nil {
			panic(fmt.Sprintf("core: loaner engine: %v", err))
		}
		l.eng = e
	}
	if l.cur != nil && l.cur != c && l.cur.eng == l.eng {
		l.eng.detach(l.cur)
	}
	l.cur = c
	l.eng.attach(c)
	return l.eng
}
