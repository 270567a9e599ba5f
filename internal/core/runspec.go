package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/spec"
)

// Runtime selects how a RunSpec executes.
type Runtime string

const (
	// RuntimeSync is the paper's lock-step loop: select K clients, wait
	// for all of them, aggregate. It is the barrier loop with the clock
	// pinned at zero — Validate refuses anything that would price it.
	RuntimeSync Runtime = "sync"
	// RuntimeAsync is the event-driven buffered runtime: Concurrency
	// clients are always in flight under the latency model, and the
	// aggregation policy decides when arrivals merge.
	RuntimeAsync Runtime = "async"
	// RuntimeBarrier is lock-step semantics priced under the latency
	// model: each round waits for its slowest client. At zero latency it
	// reproduces RuntimeSync bit-for-bit on the same seed.
	RuntimeBarrier Runtime = "barrier"
)

var runtimeFamily = spec.Family{Label: "runtime", Empty: string(RuntimeSync), Forms: []spec.Form{
	{Name: string(RuntimeSync)}, {Name: string(RuntimeAsync)}, {Name: string(RuntimeBarrier)},
}}

// ParseRuntime resolves a runtime name ("" = sync).
func ParseRuntime(name string) (Runtime, error) {
	ts, err := runtimeFamily.Parse(name)
	if err != nil {
		return "", err
	}
	return Runtime(ts[0].Name), nil
}

// RunSpec is the single description of a federated run: the base Config
// plus the runtime selector, the asynchronous knobs, and the aggregation
// policy. Start is its entrypoint.
type RunSpec struct {
	Config
	// Runtime picks the execution mode ("" = RuntimeSync).
	Runtime Runtime
	// Concurrency is the number of clients training simultaneously in
	// simulated time (RuntimeAsync; FedBuff's M). 0 = ClientsPerRound.
	// Real parallelism is bounded separately by Config.Shards.
	Concurrency int
	// BufferSize is the number of arrivals per aggregation (FedBuff's K)
	// for every policy but fedasync, which merges each one.
	// 0 = ClientsPerRound.
	BufferSize int
	// Latency prices each dispatch's virtual duration (ParseLatency; the
	// async and barrier runtimes). Unset resolves to zero, the only
	// latency RuntimeSync accepts — use RuntimeBarrier to price the
	// lock-step loop under a latency model.
	Latency FleetDist
	// Policy decides when buffered arrivals merge and how updates are
	// weighted (policy.go). The zero value selects the runtime default:
	// fedavg for RuntimeSync, fedbuff:0.5 otherwise. An Algorithm's
	// Aggregator override still wins over any policy.
	Policy Policy
	// Devices samples one compute-speed multiplier per client
	// (ParseDeviceDist; fleet.go) for the async and barrier runtimes. With
	// a fleet configured, each dispatch's virtual duration derives from the
	// round's *metered* FLOPs — flops / (FlopRate * speed) — so Latency
	// must be left unset or zero: compute heterogeneity replaces the
	// independent latency draw. Unset = homogeneous fleet, Latency prices
	// dispatches.
	Devices FleetDist
	// FlopRate is the simulated throughput, in FLOPs per virtual second,
	// of a speed-1.0 device (Devices runs only). 0 = 1e9 (1 GFLOP/s, an
	// edge-class device).
	FlopRate float64
	// Network samples one link (uplink/downlink bandwidth, RTT) per
	// client (ParseNetDist; fleet.go) for the async and barrier runtimes.
	// With a fleet configured, each dispatch's duration gains the transfer
	// time of the bytes its transport actually moved — RTT +
	// bytes*8/bandwidth per direction — on top of its compute (Devices) or
	// latency duration. Composes freely with both. Unset = free
	// communication.
	Network FleetDist
	// AdaptiveLocalSteps makes each client's local step budget scale
	// with its device speed (deadline-style partial work): a 0.25x
	// client runs a quarter of the round's mini-batch steps, never fewer
	// than one, never more than the full count. Requires Devices. What a
	// client executed is Client.RoundSteps to its method's hooks and
	// Update.Steps to the aggregation.
	AdaptiveLocalSteps bool
	// Churn is the fleet's availability process (per-client on/off
	// Markov churn plus mass-dropout events) for the async and barrier
	// runtimes. Offline clients are never dispatched (a lock-step round
	// selects among the online ones); clients that drop mid-flight arrive
	// late (after rejoin) or, if permanently dropped, lose the update
	// (Result.DroppedUpdates). nil = always available.
	Churn *ChurnModel
	// Faults is the fleet's adversarial composition (adversary.go): a
	// Byzantine fraction with a behaviour mode plus a crash-faulty
	// fraction, assigned per client from the dedicated adversary seed
	// stream and applied at upload time in every runtime. Faulty uploads
	// still pay FLOPs and wire bytes, and flow through transports,
	// staleness, and churn like honest ones; the merge path's screen and
	// any robust policy are the defense. nil = every client honest.
	Faults *FaultModel
}

// Validate checks the spec and fills every default in one place: the base
// Config's (via Config.Validate), the async knobs', and the policy's
// (Policy.resolve: base rule from the runtime, merge threshold from
// BufferSize, staleness discount PolyDiscount(0.5)). It is idempotent;
// Start calls it on its own copy, so validate explicitly when the caller
// wants to observe resolved defaults.
func (sp *RunSpec) Validate() error {
	rt, err := ParseRuntime(string(sp.Runtime))
	if err != nil {
		return err
	}
	sp.Runtime = rt
	if err := sp.Config.Validate(); err != nil {
		return err
	}
	if err := errors.Join(sp.Latency.check(&latencyFamily), sp.Devices.check(&deviceFamily), sp.Network.check(&netFamily)); err != nil {
		return err
	}
	if sp.Latency.None() {
		sp.Latency = zeroLatency
	}
	zeroLat := sp.Latency.term.Name == "zero"
	if sp.Runtime == RuntimeSync && (!zeroLat || !sp.Devices.None() || !sp.Network.None() || sp.Churn != nil) {
		return fmt.Errorf("core: the sync runtime has no simulated clock; latency, device, network and churn models need the barrier (lock-step) or async runtime")
	}
	if sp.Concurrency == 0 {
		sp.Concurrency = sp.ClientsPerRound
	}
	if sp.Concurrency < 1 || sp.Concurrency > len(sp.Parts) {
		return fmt.Errorf("core: async concurrency %d outside [1,%d]", sp.Concurrency, len(sp.Parts))
	}
	if sp.BufferSize == 0 {
		sp.BufferSize = sp.ClientsPerRound
	}
	if sp.BufferSize < 1 {
		return fmt.Errorf("core: async buffer size %d", sp.BufferSize)
	}
	if !sp.Devices.None() {
		if !zeroLat {
			return fmt.Errorf("core: device profiles derive each dispatch's latency from its metered FLOPs; drop the %s latency model", sp.Latency)
		}
		// Written so that NaN fails too: a NaN rate prices every dispatch
		// at NaN seconds, and arrival order stops being dispatch order.
		if !(sp.FlopRate >= 0) || math.IsInf(sp.FlopRate, 1) {
			return fmt.Errorf("core: device flop rate %g must be positive and finite", sp.FlopRate)
		}
		if sp.FlopRate == 0 {
			sp.FlopRate = 1e9
		}
	} else {
		if sp.AdaptiveLocalSteps {
			return fmt.Errorf("core: adaptive local steps scale with device speed; configure a device distribution")
		}
		if sp.FlopRate != 0 {
			return fmt.Errorf("core: FlopRate prices device-profile dispatches; configure a device distribution")
		}
	}
	if sp.Churn != nil {
		if err := sp.Churn.Validate(); err != nil {
			return err
		}
	}
	if sp.Faults != nil {
		if err := sp.Faults.Validate(); err != nil {
			return err
		}
		if _, ok := sp.Algo.(Aggregator); ok {
			// An Aggregator override bypasses the weighted-merge funnel and
			// with it the non-finite screen — a nan/crash fault would reach
			// the global model unchecked.
			return fmt.Errorf("core: %s overrides server aggregation and bypasses the fault screen; fault injection needs a policy-merged method", sp.Algo.Name())
		}
	}
	if sp.Runtime == RuntimeAsync {
		// The algos package contract makes PreRound and Aggregate
		// single-threaded calls with no client phase in flight. Buffered
		// mode aggregates while other clients are mid-training, so
		// methods with server-side struct state (SCAFFOLD, SlowMo,
		// FedDyn, FedNova, FedDANE, MimeLite) would race and see a bogus
		// "selected" set. The barrier runtime joins every client first
		// and so remains safe for them.
		if _, ok := sp.Algo.(PreRounder); ok {
			return fmt.Errorf("core: %s needs a pre-round phase; the buffered async runtime cannot run it (use the barrier runtime or a client-side method)", sp.Algo.Name())
		}
		if _, ok := sp.Algo.(Aggregator); ok {
			return fmt.Errorf("core: %s overrides server aggregation; the buffered async runtime cannot run it (use the barrier runtime or a client-side method)", sp.Algo.Name())
		}
	}
	return sp.Policy.resolve(sp.Runtime, sp.BufferSize)
}

// Start validates the spec and executes the run on the selected runtime.
// It is the one entrypoint every runtime and policy combination goes
// through — literally NewRunState + Run. Callers that need
// round-at-a-time control, checkpointing, or resume use RunState
// directly.
func Start(spec RunSpec) (*Result, error) {
	rs, err := NewRunState(spec)
	if err != nil {
		return nil, err
	}
	return rs.Run()
}
