// Package runtext holds the one text form of a run and the one place it
// becomes a core.RunSpec. The runtime half is Selection: the twelve spec
// strings and knobs that cmd/fedtrip and cmd/fedtrip-tables take as flags
// and that experiments.Profile carries as fields; every string is in the
// internal/spec grammar, the family each field belongs to named on the
// field. The task half is Task (task.go): the 20 flags that say what is
// learned, on what data, by which method. Command is the two together as
// cmd/fedtrip registers them; FromLine is how the examples turn a fedtrip
// command line into a run, and Line how the experiment harness writes
// each table cell as one — the harness has no assembler of its own.
package runtext

import (
	"errors"
	"flag"
	"fmt"
	"reflect"

	"repro/internal/comm"
	"repro/internal/core"
)

// Selection is a run's runtime selection in text form. The zero value
// selects the paper's lock-step loop with free, unmeasured communication.
type Selection struct {
	// Runtime is sync|async|barrier (core.ParseRuntime; "" = sync).
	Runtime core.Runtime
	// Latency prices dispatches on the async and barrier runtimes
	// (core.ParseLatency; "" = zero). RunSpec.Validate rejects a non-zero
	// model on sync, which has no simulated clock.
	Latency string
	// Policy decides when arrivals merge and how they are weighted
	// (core.ParsePolicy; "" = the runtime default, FedAvg on sync and
	// FedBuff otherwise).
	Policy string
	// ServerLR sets a server learning-rate schedule on the policy
	// (core.ParseLRSchedule; "" = full replacement).
	ServerLR string
	// Concurrency and Buffer are the async knobs: clients in flight and
	// arrivals per aggregation (0 = K).
	Concurrency, Buffer int
	// Devices samples per-client compute speeds (core.ParseDeviceDist;
	// "" = homogeneous fleet priced by Latency). With a fleet, dispatch
	// durations derive from metered FLOPs and Latency must stay zero.
	Devices string
	// Churn is the availability process of the async and barrier
	// runtimes (core.ParseChurn; "" = always available).
	Churn string
	// AdaptiveSteps scales each client's local step budget with its
	// device speed (requires Devices).
	AdaptiveSteps bool
	// Transport encodes model transfers on the wire (comm.ParseTransport;
	// "" = none: analytic float32 byte accounting). A fresh transport is
	// built per RunSpec, since compressing transports carry per-client
	// state.
	Transport string
	// Bandwidth samples per-client links (core.ParseNetDist; "" = free
	// network): each dispatch additionally pays RTT plus
	// measured-bytes/bandwidth in simulated time.
	Bandwidth string
	// Faults is the adversarial composition of the fleet
	// (core.ParseFaults; "" = honest).
	Faults string
}

// Register binds the selection to the shared command-line flags; the
// current field values are the defaults.
func (s *Selection) Register(fs *flag.FlagSet) {
	fs.StringVar((*string)(&s.Runtime), "runtime", string(s.Runtime), "runtime: sync|async|barrier (default sync; barrier = lock-step priced under -latency)")
	fs.StringVar(&s.Latency, "latency", s.Latency, "async/barrier: client latency model (zero|const:D|uniform:MIN,MAX|exp:MEAN|lognormal:MU,SIGMA|straggler:F,S,E)")
	fs.StringVar(&s.Policy, "policy", s.Policy, "aggregation policy: fedavg|fedbuff[:EXP]|fedasync[:ALPHA[,EXP]]|importance[:BETA[,EXP]]|median|trimmedmean:F|krum:F|maxstale:MAX|clip:C, compose the last two onto any policy as +maxstale:MAX and +clip:C (default: fedavg sync, fedbuff async)")
	fs.StringVar(&s.ServerLR, "server-lr", s.ServerLR, "server learning-rate schedule on merge: const:ETA|invsqrt:ETA0|step:ETA0,G,E (default: full replacement)")
	fs.IntVar(&s.Concurrency, "concurrency", s.Concurrency, "async: clients training simultaneously (0 = K)")
	fs.IntVar(&s.Buffer, "buffer", s.Buffer, "async: arrivals per aggregation (0 = K)")
	fs.StringVar(&s.Devices, "device-dist", s.Devices, "device compute-speed distribution (none|uniform:MIN,MAX|lognormal:MU,SIGMA|tiered[:S1,F1,...]); dispatch latency becomes metered FLOPs / (flop-rate * speed)")
	fs.StringVar(&s.Churn, "dropout", s.Churn, "async/barrier: client availability churn (none|markov:UP,DOWN[+drop:AT,FRAC,DUR]...)")
	fs.BoolVar(&s.AdaptiveSteps, "local-steps-adaptive", s.AdaptiveSteps, "scale each client's local step budget by its device speed (needs -device-dist)")
	fs.StringVar(&s.Transport, "transport", s.Transport, "wire transport (none|f32|lossless|q<bits>|topk:R|randk:R, compose error feedback with +ef, e.g. topk:0.01+ef); compressed uplinks move fewer measured bytes")
	fs.StringVar(&s.Bandwidth, "bandwidth-dist", s.Bandwidth, "per-client link distribution (none|const:UP,DOWN[,RTT]|uniform:MIN,MAX[,RTT]|lognormal:MU,SIGMA[,RTT]|tiered[:UP,DOWN,RTT,FRAC,...]); Mbps and ms — each dispatch pays rtt + measured-bytes/bandwidth in simulated time")
	fs.StringVar(&s.Faults, "faults", s.Faults, "adversarial faults (none|byz:FRAC,MODE[+crash:FRAC]; modes signflip|scale:K|noise:SIGMA|nan|labelflip); pair with -policy median|trimmedmean:F|krum:F or a +clip:C guard")
}

// Overlay returns s with every non-zero field of over laid on top: a
// case's overrides beat its profile, a command line beats a profile.
func (s Selection) Overlay(over Selection) Selection {
	dst, src := reflect.ValueOf(&s).Elem(), reflect.ValueOf(over)
	for i := 0; i < src.NumField(); i++ {
		if f := src.Field(i); !f.IsZero() {
			dst.Field(i).Set(f)
		}
	}
	return s
}

// Parse turns the text into a typed RunSpec over cfg. Every field is
// parsed and attached whatever the runtime: RunSpec.Validate owns the
// rejections (a latency model, device fleet or churn on sync, faults on a
// method that bypasses the merge screen), so a conflicting combination
// errors loudly instead of being dropped. The transport comes from the
// Transport text; cfg must not carry one.
func (s Selection) Parse(cfg core.Config) (core.RunSpec, error) {
	rs := core.RunSpec{
		Config: cfg, Concurrency: s.Concurrency, BufferSize: s.Buffer,
		AdaptiveLocalSteps: s.AdaptiveSteps,
	}
	if cfg.Transport != nil {
		return rs, fmt.Errorf("runtext: the Config already carries a transport; name it in Selection.Transport instead")
	}
	var errs [9]error // every malformed field is reported, not just the first
	rs.Runtime, errs[0] = core.ParseRuntime(string(s.Runtime))
	rs.Latency, errs[1] = core.ParseLatency(s.Latency)
	rs.Devices, errs[2] = core.ParseDeviceDist(s.Devices)
	rs.Churn, errs[3] = core.ParseChurn(s.Churn)
	rs.Transport, errs[4] = comm.ParseTransport(s.Transport)
	rs.Network, errs[5] = core.ParseNetDist(s.Bandwidth)
	rs.Faults, errs[6] = core.ParseFaults(s.Faults)
	if s.Policy != "" {
		rs.Policy, errs[7] = core.ParsePolicy(s.Policy)
	}
	if s.ServerLR != "" {
		rs.Policy.ServerLR, errs[8] = core.ParseLRSchedule(s.ServerLR)
	}
	return rs, errors.Join(errs[:]...)
}

// RunSpec is Parse followed by Validate: the returned spec has every
// default resolved.
func (s Selection) RunSpec(cfg core.Config) (core.RunSpec, error) {
	rs, err := s.Parse(cfg)
	if err != nil {
		return rs, err
	}
	return rs, rs.Validate()
}
