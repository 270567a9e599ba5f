package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtext"
)

// runTTA derives the paper's resource-efficiency comparison (the
// rounds/GFLOPs/communication framing of Tables IV-VI) in *time to
// accuracy* under a straggler fleet, through the unified RunSpec facade:
// the same methods run on the lock-step barrier runtime (every round pays
// the slowest selected client) and on the buffered async runtime under
// the FedBuff and FedAsync aggregation policies, all priced by the same
// latency model. Columns report resources spent until the adaptive target
// accuracy: aggregation rounds, training GFLOPs, communication MB, and
// simulated wall-clock seconds, plus the wall-clock speedup over the
// synchronous barrier.
//
// The latency model defaults to a straggler fleet (every 3rd client 10x
// slower, the regime where lock-step rounds pay the straggler tax) and
// follows the profile's -latency override when one is set.
func runTTA(p Profile, logf Logf) ([]*Table, error) {
	latency := p.Latency
	if latency == "" || latency == "zero" {
		latency = "straggler:1,10,3"
	}
	// Methods must be client-side only: the buffered async runtime cannot
	// run server-hook methods, and falling back to barrier would make the
	// policy columns vacuous.
	methods := []string{"fedtrip", "fedavg", "fedprox"}
	type variant struct {
		label   string
		runtime core.Runtime
		policy  string
	}
	// Policies are pinned explicitly (the barrier baseline to fedavg) so
	// a profile-level -policy override cannot silently contaminate the
	// baseline the adaptive target and speedup column calibrate against.
	variants := []variant{
		{"sync barrier", core.RuntimeBarrier, "fedavg"},
		{"async fedbuff", core.RuntimeAsync, "fedbuff"},
		{"async fedasync", core.RuntimeAsync, "fedasync"},
	}
	perRound := p.PerRound
	buffer := p.Buffer
	if buffer == 0 {
		// Merge at half-round granularity so the buffered runtime
		// genuinely decouples from the lock-step cadence.
		buffer = max(1, perRound/2)
	}
	baseCase := func(method string, v variant) Case {
		c := mlpMNISTCase(method, runtext.Selection{
			Runtime: v.runtime, Latency: latency, Policy: v.policy, Buffer: buffer,
		})
		// Rounds counts aggregations on the buffered runtime, and one
		// aggregation merges `buffer` updates where a barrier round
		// merges K — scale the budget so every variant trains the same
		// total number of client updates. Ceiling division: a buffer
		// that does not divide the update budget rounds the aggregation
		// count up (never down to a silent 0, which Profile.Run would
		// read as "no override").
		if v.runtime == core.RuntimeAsync {
			updatesPerAgg := buffer
			if v.policy == "fedasync" {
				updatesPerAgg = 1
			}
			c.Rounds = (p.Rounds*perRound + updatesPerAgg - 1) / updatesPerAgg
		}
		return c
	}
	// The target self-calibrates from the FedAvg barrier baseline, like
	// the round tables do.
	fedavgRef, err := p.RunTrials(baseCase("fedavg", variants[0]), logf)
	if err != nil {
		return nil, err
	}
	target := adaptiveTarget(fedavgRef)

	t := &Table{
		ID:    "tta",
		Title: "Time to accuracy under stragglers (MLP/MNIST, Dir-0.5): barrier vs FedBuff vs FedAsync",
		Headers: []string{
			"Method", "Runtime/Policy", "Aggs to target", "GFLOPs", "Comm MB", "Sim time (s)", "Speedup",
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("latency %s, buffer %d; adaptive target %.4f (0.97x FedAvg barrier final)", latency, buffer, target),
		"speedup = barrier sim-time / variant sim-time for the same method (shown only when both reached the target; >marks: target not reached, full-run resources shown)",
	)
	sweep, err := runTTASweep(p, logf, latency, target, perRound)
	if err != nil {
		return nil, err
	}
	for _, method := range methods {
		var barrierTime float64
		barrierReached := false
		for _, v := range variants {
			results, err := p.RunTrials(baseCase(method, v), logf)
			if err != nil {
				return nil, err
			}
			s := summarise(results, target)
			if v.runtime == core.RuntimeBarrier {
				barrierTime = s.simTime
				barrierReached = s.reached
			}
			// The ratio only means "time-to-accuracy speedup" when both
			// sides actually reached the target; a censored side would
			// silently mix full-run time into an exact-looking number.
			speedup := "-"
			if v.runtime != core.RuntimeBarrier && s.simTime > 0 && s.reached && barrierReached {
				speedup = fmt.Sprintf("%.1fx", barrierTime/s.simTime)
			}
			t.AddRow(method, v.label,
				s.mark()+fmt.Sprintf("%.0f", s.aggs),
				s.mark()+fmt.Sprintf("%.2f", s.gflops),
				s.mark()+fmt.Sprintf("%.2f", s.mb),
				s.mark()+fmt.Sprintf("%.1f", s.simTime),
				speedup)
		}
	}
	return []*Table{t, sweep}, nil
}

// runTTASweep is the aggregation-policy hyperparameter column of the tta
// comparison: FedTrip alone, on the buffered async runtime under the
// same straggler fleet and adaptive target, sweeping FedAsync's mixing
// rate alpha against FedBuff's buffer size K — plus the
// importance-weighted buffer and a server-LR schedule, so
// the importance policy and -server-lr are exercised by a registered table
// rather than unit tests alone. Budgets stay update-equalized: every row
// trains the same total number of client updates.
func runTTASweep(p Profile, logf Logf, latency string, target float64, perRound int) (*Table, error) {
	type row struct {
		label, policy, serverLR string
		// updatesPerAgg is how many client updates one aggregation
		// consumes (FedAsync merges every single arrival).
		updatesPerAgg int
	}
	rows := []row{
		{"fedbuff K=1", "fedbuff", "", 1},
		{"fedbuff K=2", "fedbuff", "", 2},
		{"fedbuff K=4", "fedbuff", "", 4},
		{"fedasync a=0.3", "fedasync:0.3", "", 1},
		{"fedasync a=0.6", "fedasync:0.6", "", 1},
		{"fedasync a=0.9", "fedasync:0.9", "", 1},
		{"importance b=0.1 K=2", "importance:0.1", "", 2},
		{"fedbuff K=2, lr=invsqrt", "fedbuff", "invsqrt:1", 2},
	}
	t := &Table{
		ID:      "tta-sweep",
		Title:   "Policy sweep under stragglers (FedTrip): FedAsync alpha vs FedBuff K, importance weights, server-LR",
		Headers: []string{"Policy", "Aggs to target", "Sim time (s)", "Final acc"},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("latency %s, update-budget-equalized; same adaptive target %.4f as the tta table", latency, target),
		"importance = loss-weighted FedBuff buffer (beta 0.1); lr=invsqrt = server rate 1/sqrt(t) on merge",
	)
	totalUpdates := p.Rounds * perRound
	for _, r := range rows {
		c := mlpMNISTCase("fedtrip", runtext.Selection{
			Runtime: core.RuntimeAsync, Latency: latency, Policy: r.policy,
			ServerLR: r.serverLR, Buffer: r.updatesPerAgg,
		})
		c.Rounds = (totalUpdates + r.updatesPerAgg - 1) / r.updatesPerAgg
		results, err := p.RunTrials(c, logf)
		if err != nil {
			return nil, err
		}
		s := summarise(results, target)
		t.AddRow(r.label,
			s.mark()+fmt.Sprintf("%.0f", s.aggs),
			s.mark()+fmt.Sprintf("%.1f", s.simTime),
			fmt.Sprintf("%.4f", s.final))
	}
	return t, nil
}
