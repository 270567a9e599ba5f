// Package core implements the federated-learning runtime the paper's
// experiments run on, and FedTrip itself — the paper's contribution.
//
// The runtime follows the standard FL template (§III.A): at each
// communication round the server selects K of N clients uniformly at
// random, ships them the global model w^{t-1}, the clients run E local
// epochs of mini-batch training in parallel, and the server aggregates the
// returned models with data-size weights (Eq. 2). Methods plug in through
// the Algorithm interface: a gradient transform on the client (FedProx,
// FedTrip, FedDyn, SCAFFOLD...), an optional representation-level loss
// term (MOON), an optional server-side aggregation override (SlowMo,
// FedDyn), and an optional pre-round communication phase (FedDANE,
// MimeLite).
//
// Everything is metered: training FLOPs (model forward/backward plus each
// method's attaching operations) and client<->server communication bytes,
// so the paper's resource-efficiency tables (IV, V, VI) can be produced
// from a Run's Result.
package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Config describes one federated run.
type Config struct {
	// Model is the architecture every client and the server share.
	Model nn.ModelSpec
	// Train and Test are the synthetic datasets.
	Train, Test *data.Dataset
	// Parts assigns training sample indices to clients (see
	// internal/partition); len(Parts) is the client population N.
	Parts [][]int
	// Rounds is the number of communication rounds T.
	Rounds int
	// ClientsPerRound is K, the number of clients selected each round.
	ClientsPerRound int
	// BatchSize is the local mini-batch size (paper default 50).
	BatchSize int
	// LocalEpochs is E, passes over local data per round (paper default 1).
	LocalEpochs int
	// LR and Momentum configure the local optimizer (paper: 0.01, 0.9).
	// Algorithms that require plain SGD (SlowMo, FedDyn) override via the
	// OptimizerChooser interface.
	LR, Momentum float64
	// ClipNorm, when positive, rescales each post-transform mini-batch
	// gradient to at most this global L2 norm before the optimizer step.
	// Long aggregation intervals (Table VII's 5-10 local epochs) compound
	// SGDm amplification with the regularizers' drift terms; clipping is
	// the standard stabiliser and is applied to every method uniformly.
	ClipNorm float64
	// Algo is the federated method under test.
	Algo Algorithm
	// Seed drives every stochastic choice (init, selection, shuffling).
	Seed int64
	// Shards is the number of worker shards client training runs on (both
	// runtimes), and the run's only training parallelism: a shard runs
	// its client's kernels on its own goroutine. Each shard owns one
	// training engine — model, optimizer, batch buffers — reused across
	// every client it serves, so memory scales with Shards, not with the
	// population. 0 selects one shard per available CPU. Trajectories do
	// not depend on the shard count or on GOMAXPROCS: all per-client
	// randomness comes from per-client streams.
	Shards int
	// TargetAccuracy, if positive, is reported at Finish in
	// Result.RoundsToTarget: the first evaluated round that reached it.
	// It never changes the run.
	TargetAccuracy float64
	// EvalEvery evaluates test accuracy every k rounds (default 1).
	EvalEvery int
	// Logf, if non-nil, receives per-round progress lines.
	Logf func(format string, args ...any)
	// OnRound, if non-nil, is called at the end of every round with the
	// live server (after aggregation and evaluation). The Fig. 2 harness
	// uses it to snapshot global and local models mid-run.
	OnRound func(round int, s *Server)
	// OnUpdates, if non-nil, observes each round's raw client uploads
	// together with the global model they started from, before
	// aggregation. Slices are only valid during the call; copy to retain.
	// Over a transport an upload may be held compact, Params nil: read
	// it with Update.Vector.
	// The trace package uses it to measure global-local divergence and
	// current-historical distances (the quantities FedTrip manipulates).
	OnUpdates func(round int, globalBefore []float64, updates []Update)
	// Transport, if non-nil, carries every model transfer between server
	// and clients (the comm package provides a float32 wire transport
	// with true byte metering). nil means lossless in-memory handoff.
	// The runtime calls it as a WireTransport; see there for the
	// contract, and for what a transport without those methods gets.
	Transport Transport
}

// WireTransport is how the runtime moves a model between server and
// client: destination-passing, so a steady-state transfer allocates
// nothing. DownInto is called once per dispatch with the global model
// and writes what the client actually receives into dst; UpInto is
// called with the client's upload and writes what the server actually
// receives. Both return the exact bytes the transfer put on the wire —
// the network pricer (RunSpec.Network) turns them into transfer time and
// the recorder into Result.CommBytesByRound, the one source of both (a
// run without a transport counts each transfer at its dense float32
// size, 4·|w|). Implementations must be
// safe for concurrent calls (clients train in parallel) and must not
// retain any argument past the call.
//
// Who owns what: dst is a runtime-owned buffer of len(global) — the
// downlink's belongs to the shard engine training the client, the
// upload's is the pooled buffer the merge will read. The client trains
// from the downlink buffer, and the runtime hands that same vector back
// to UpInto as ref — what this client received, the base a delta-coding
// transport needs. resid is the client's error-feedback row (never a nil
// pointer): empty until the transport first stores a row there, and then
// the same row at every later upload of that client, carried across a
// snapshot with the client. The transport reads and writes it in place
// and keeps no per-dispatch or per-client state of its own. An empty
// *resid with capacity for a row is storage the transport may store the
// first row in instead of allocating one: the runtime hands a recorded
// participation engine scratch there when the row will be rebuilt, not
// kept (lazyrows.go). UpInto's dst may alias params (the runtime rounds
// an upload in place), and DownInto's dst may alias global (the runtime
// codes a version it holds as a float32 image from that image, widened
// into the downlink buffer: globalSnap), so a transfer reads each entry
// of its source before it writes that entry of dst. dst never aliases
// ref or the row; ref is never written, and global only through a dst
// that aliases it.
//
// The comm package's transports implement it. A Config.Transport that
// does not is a legacy transport and runs behind an adapter that copies
// its results into dst (legacytransport.go).
type WireTransport interface {
	DownInto(dst []float64, clientID, round int, global []float64) (wire int64)
	UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) (wire int64)
}

// Coder is an optional WireTransport capability: the two transfers
// without the counting. DownCode writes dst as DownInto would, UpCode
// writes dst and *resid as UpInto would — dst may alias global and
// params as it may there — and each returns the bytes its counted twin
// would report, but no counter moves, and the same arguments always
// write the same bits. The runtime calls them to run again both
// transfers of a participation that was already sent and counted: what
// the client received, which a replay trains from, and what its upload
// left in the error-feedback row (lazyrows.go). Under a transport
// without it every row is kept dense. A legacy transport finds one by
// its name (RegisterLegacyCoders).
//
// The runtime also codes each model version's downlink once with
// DownCode, for client 0 in round 0 (Server.hold). When every entry of
// that is exact in float32 and coding it again gives it back bit for
// bit, at the same size, the runtime holds the version as that float32
// image and codes every client's downlink from it, widened, instead of
// from the global. A downlink that depends on the client or the round
// must therefore code that image for each client as it codes the
// global; one that depends on the global alone, as every comm transport
// does, always does.
type Coder interface {
	DownCode(dst []float64, clientID, round int, global []float64) (wire int64)
	UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) (wire int64)
}

// Transport is the legacy, allocating transfer interface, kept (with
// SizedTransport and MeteredTransport) until the benchmark's trace
// wrapper moves to WireTransport — ROADMAP item 1: a benchmark
// re-baseline first, then a deletion that removes these and renames
// WireTransport's methods to Down/Up. Down returns what the client
// receives, Up what the server receives; both must be safe for
// concurrent calls.
//
// Slice lifetimes: the vectors passed to Down and Up are runtime-owned
// buffers that are recycled once the round's merge has consumed them —
// a Transport that wants to keep one must copy it. The runtime copies
// each result into its own storage as soon as the call returns, so a
// legacy transport may keep (and later reuse) what it returned; a result
// must have the length of the vector it was given. A legacy transport
// that is not a SizedTransport reports no sizes: each of its transfers is
// priced and recorded at its dense float32 size, 4·|w|, as in a run
// without a transport.
type Transport interface {
	Down(clientID, round int, global []float64) []float64
	Up(clientID, round int, params []float64) []float64
}

// MeteredTransport is an optional Transport capability: implementations
// report the cumulative bytes actually encoded on the wire in each
// direction. The runtime reads no counter — Result.CommBytesByRound sums
// the sizes each transfer returns (WireTransport, SizedTransport) — so
// this is for callers that report traffic, such as the benchmark's trace
// wrapper. Counters must be safe for concurrent reads while transfers
// are in flight.
type MeteredTransport interface {
	Transport
	WireBytes() (down, up int64)
}

// SizedTransport is an optional Transport capability: each transfer also
// reports the exact bytes it put on the wire, on the call's stack rather
// than in a shared counter. With a network distribution configured
// (RunSpec.Network) the runtime prices each dispatch's upload/download
// durations from these per-transfer sizes, so a compressing transport
// genuinely buys simulated time, and Result.CommBytesByRound records the
// same sizes. Without it, transfers are priced and recorded at the dense
// float32 size, 4·|w|. Same concurrency and slice-lifetime contract as
// Transport.
type SizedTransport interface {
	Transport
	DownSized(clientID, round int, global []float64) (enc []float64, wire int64)
	UpSized(clientID, round int, params []float64) (enc []float64, wire int64)
}

// StatefulTransport names a transport that keeps run-long state of its
// own behind a snapshot blob. The runtime no longer serializes such
// state — a client's error-feedback residual is a row the runtime owns
// (WireTransport.UpInto) — so Snapshot refuses a transport that
// implements it rather than silently dropping that state. The type
// stays only for that refusal and for the benchmark's trace wrapper,
// until ROADMAP item 1's deletion.
type StatefulTransport interface {
	Transport
	SnapshotState(w io.Writer) error
	RestoreState(r io.Reader) error
}

// Validate checks the configuration and fills defaults.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Train == nil || c.Test == nil {
		return fmt.Errorf("core: nil dataset")
	}
	if len(c.Parts) == 0 {
		return fmt.Errorf("core: no client partitions")
	}
	for k, p := range c.Parts {
		if len(p) == 0 {
			return fmt.Errorf("core: client %d has no data", k)
		}
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("core: rounds %d", c.Rounds)
	}
	if c.ClientsPerRound <= 0 || c.ClientsPerRound > len(c.Parts) {
		return fmt.Errorf("core: clients per round %d outside [1,%d]", c.ClientsPerRound, len(c.Parts))
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: batch size %d", c.BatchSize)
	}
	if c.LocalEpochs <= 0 {
		return fmt.Errorf("core: local epochs %d", c.LocalEpochs)
	}
	// Each check is written so that NaN fails it.
	if !(c.LR > 0) || math.IsInf(c.LR, 1) {
		return fmt.Errorf("core: learning rate %v", c.LR)
	}
	if !(c.Momentum >= 0 && c.Momentum < 1) {
		return fmt.Errorf("core: momentum %v", c.Momentum)
	}
	if !(c.ClipNorm >= 0) || math.IsInf(c.ClipNorm, 1) {
		return fmt.Errorf("core: clip norm %v is not a finite number >= 0", c.ClipNorm)
	}
	if c.Algo == nil {
		return fmt.Errorf("core: nil algorithm")
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: shards %d", c.Shards)
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	return nil
}

// Update is what a client returns to the server after local training.
type Update struct {
	ClientID int
	// Params is the upload as a dense vector, or nil when the runtime
	// holds it compact (over a transport: narrowed to float32, or as a
	// patch against the global its client trained from). Vector reads it
	// in every form.
	Params     []float64
	NumSamples int
	// Steps is the number of local mini-batch steps the client actually
	// ran — fewer than LocalEpochs*ceil(n/batch) under a device step
	// budget. FedNova normalises by it.
	Steps     int
	TrainLoss float64
	// Staleness is the number of aggregations the server completed between
	// this update's dispatch and its merge. Always 0 in the synchronous
	// runtime; the asynchronous runtime fills it before aggregation so
	// Aggregator overrides and OnUpdates observers can react to it.
	Staleness int
	// pooled marks Params as checked out of the server's buffer pool;
	// recycleUpdates returns it after the merge consumed the update.
	// Updates built by hand (tests, custom transports) leave it false and
	// are never recycled.
	pooled bool
	// A compact upload, Params nil. Over a transport: narrow, a
	// narrowPool vector, holds it when every entry is exact in float32;
	// patch otherwise, against the float32 image of the version its
	// client trained from (the job's storage, valid until the round that
	// merges it is done): base, the global, or base32, the blocks of the
	// version held as what a float32 downlink delivers (globalSnap). One
	// of the two is set. Without a transport: bitmap, a pooled patch of the entries
	// that differ from base, the version itself, which a recipe or the
	// lock-step gate keeps alive anyway.
	narrow []float32
	patch  *uploadPatch
	bitmap *bitPatch
	base   []float64
	base32 *image32
}

// Algorithm customises client-side local training. The zero-cost base
// implementation (FedAvg) is the Base struct; methods embed it and
// override what they need. Optional capabilities are expressed as extra
// interfaces: FeatureGradder, Aggregator, PreRounder, OptimizerChooser,
// and CommCoster.
//
// Where a method keeps things: what lives for one round it reads from the
// client's borrowed engine — Client.RoundGlobal (the received model),
// Client.RoundSteps (the steps run so far) — or recomputes, as FedTrip does
// xi; what a client carries from one participation to the next is a row of
// Client.State, which the method writes itself (FedTrip's w_hist, in its
// EndRound). The runtime keeps only Client.LastRound for every method.
type Algorithm interface {
	// Name returns the registry name ("fedtrip", "fedavg", ...).
	Name() string
	// BeginRound runs on the client after it loaded the global model and
	// before local iterations start.
	BeginRound(c *Client, round int, global []float64)
	// TransformGrad mutates the freshly computed mini-batch gradient g in
	// place, given the current local parameters w. This is where model
	// regularization methods live (Algorithm 1 line 7).
	TransformGrad(c *Client, round int, w, g []float64)
	// EndRound runs after the client's last local iteration, before the
	// model is uploaded.
	EndRound(c *Client, round int)
}

// FeatureGradder is implemented by model-representation methods (MOON)
// that add a loss term on the representation z (the model's penultimate
// activation). FeatureGrad is called after the local forward pass of every
// batch; it writes d(extraLoss)/d(features) into out ([N, featureDim]) and
// reports whether it contributed anything.
type FeatureGradder interface {
	FeatureGrad(c *Client, x *tensor.Tensor, labels []int, features, out *tensor.Tensor) bool
}

// LogitGradder is implemented by methods that add a loss term on the
// model's logits (FedGKD's knowledge distillation). LogitGrad is called
// after the cross-entropy gradient has been written to dLogits; the
// implementation adds its own term in place.
type LogitGradder interface {
	LogitGrad(c *Client, x *tensor.Tensor, labels []int, logits, dLogits *tensor.Tensor)
}

// Aggregator overrides the server's default data-size-weighted averaging
// (Eq. 2). It returns the new global parameter vector.
type Aggregator interface {
	Aggregate(round int, global []float64, updates []Update) []float64
}

// PreRounder runs a pre-round communication phase over the selected
// clients before local training (FedDANE's gradient exchange, MimeLite's
// server-state update). The selected slice is runtime scratch, valid
// only until the next round's selection — implementations that need the
// participants later (e.g. in an Aggregator) must copy it.
type PreRounder interface {
	PreRound(round int, selected []*Client, global []float64)
}

// OptimizerChooser lets a method pick its local optimizer (the paper runs
// SlowMo and FedDyn with plain SGD, everything else with SGDm).
type OptimizerChooser interface {
	NewOptimizer(lr, momentum float64) optim.Optimizer
}

// CommCoster reports extra per-client per-round communication in units of
// one model transfer (SCAFFOLD/FedDANE/MimeLite ship an extra 2|w|).
type CommCoster interface {
	ExtraCommFactor() float64
}

// AttachCoster is implemented by a method whose attaching operations
// cost a known number of FLOPs a local step: AttachFLOPs returns exactly
// what TransformGrad meters for client c in round, each step, read at
// c's dispatch (c.LastRound still names its previous participation).
// The runtime prices a device arrival with it before the job trains
// (Server.bound). A method without it is priced by its model passes
// alone until it has trained, which a method's extra work only lengthens.
// Base does not implement it: every method embeds Base, and a default
// would be a wrong count for every method with attaching work.
type AttachCoster interface {
	AttachFLOPs(c *Client, round int) int64
}

// Base is the no-op Algorithm; embedded by every method. On its own it is
// exactly FedAvg.
type Base struct{}

func (Base) BeginRound(c *Client, round int, global []float64)  {}
func (Base) TransformGrad(c *Client, round int, w, g []float64) {}
func (Base) EndRound(c *Client, round int)                      {}
