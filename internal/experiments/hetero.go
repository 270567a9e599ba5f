package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtext"
	"repro/internal/stats"
)

// runHetero measures FedTrip against FedAvg/FedProx under *system*
// heterogeneity — the device dimension the paper's resource argument is
// about but its experiments hold fixed. Every variant runs the buffered
// async runtime with FLOP-coupled device profiles: a client's dispatch
// latency is its metered training FLOPs over its sampled device speed,
// so slow devices are slow because they compute, not because a latency
// distribution says so. The fleets:
//
//   - "uniform fleet": every device at speed 1 — the homogeneous
//     baseline the adaptive target calibrates against.
//   - "tiered devices": the 0.25x/1x/4x edge/mobile/server split, with
//     adaptive local steps (slow devices train proportionally fewer
//     mini-batch steps before their deadline-style upload).
//   - "lognormal + churn": a heavy-tailed speed spread under on/off
//     Markov availability churn, with the maxstale:8 admission
//     cutoff dropping rejoin updates staler than 8 aggregations.
//
// Columns report resources to the adaptive target (aggregations,
// training GFLOPs, simulated wall-clock) plus the slowdown each fleet
// inflicts relative to the same method's uniform-fleet time. Budgets are
// update-equalized like the tta table: every variant trains the same
// total number of client updates.
func runHetero(p Profile, logf Logf) ([]*Table, error) {
	// Methods must be client-side only: the table runs the buffered async
	// runtime, which rejects server-hook methods.
	methods := []string{"fedtrip", "fedavg", "fedprox"}
	type variant struct {
		label    string
		devices  string
		churn    bool
		policy   string
		adaptive bool
	}
	variants := []variant{
		{"uniform fleet", "uniform:1,1", false, "fedbuff", false},
		{"tiered devices", "tiered", false, "fedbuff", true},
		{"lognormal + churn", "lognormal:0,0.6", true, "fedbuff+maxstale:8", true},
	}
	perRound := p.PerRound
	buffer := p.Buffer
	if buffer == 0 {
		buffer = max(1, perRound/2)
	}
	baseCase := func(method string, v variant, churnSpec string) runtext.Command {
		c := p.mlpMNIST(method, runtext.Selection{
			Runtime: core.RuntimeAsync, Policy: v.policy, Buffer: buffer,
			Devices: v.devices, AdaptiveSteps: v.adaptive,
		})
		// Update-budget equalization: Rounds counts aggregations and
		// each merges `buffer` updates where a sync round merges K.
		c.Rounds = (p.Rounds*perRound + buffer - 1) / buffer
		if v.churn {
			c.Churn = churnSpec
		}
		return c
	}
	fedavgRef, err := p.RunTrials(baseCase("fedavg", variants[0], ""), logf)
	if err != nil {
		return nil, err
	}
	target := adaptiveTarget(fedavgRef)
	// The availability timescales must live on the flop-derived clock,
	// whose unit depends on the profile's model and data sizes — seconds
	// of Markov churn against a 50ms horizon would never fire. Calibrate
	// from the uniform-fleet reference: mean up-time of a third of the
	// horizon and down-time of a fifteenth gives every client a couple
	// of outages per run and ~17% of the fleet offline at any moment.
	var horizon []float64
	for _, r := range fedavgRef {
		horizon = append(horizon, r.SimTimeByRound[len(r.SimTimeByRound)-1])
	}
	h := stats.Mean(horizon)
	churnSpec := fmt.Sprintf("markov:%.6g,%.6g", h/3, h/15)

	t := &Table{
		ID:    "hetero",
		Title: "Device heterogeneity and churn (MLP/MNIST, Dir-0.5, async FedBuff, FLOP-coupled latency)",
		Headers: []string{
			"Method", "Fleet", "Aggs to target", "GFLOPs", "Sim time (s)", "vs uniform",
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("buffer %d, update-budget-equalized; adaptive target %.4f (0.97x FedAvg uniform-fleet final)", buffer, target),
		"dispatch latency = metered FLOPs / (1 GFLOP/s * device speed); tiered = 0.25x/1x/4x edge/mobile/server",
		fmt.Sprintf("churn = %s (~17%% offline, horizon-calibrated) with a fedbuff+maxstale:8 admission cutoff; adaptive local steps on the heterogeneous fleets", churnSpec),
		"vs uniform = variant sim-time / same method's uniform-fleet sim-time (>marks: target not reached, full-run resources shown)",
	)
	for _, method := range methods {
		var uniformTime float64
		uniformReached := false
		for i, v := range variants {
			results, err := p.RunTrials(baseCase(method, v, churnSpec), logf)
			if err != nil {
				return nil, err
			}
			s := summarise(results, target)
			if i == 0 {
				uniformTime = s.simTime
				uniformReached = s.reached
			}
			slowdown := "-"
			if i > 0 && uniformTime > 0 && s.reached && uniformReached {
				slowdown = fmt.Sprintf("%.1fx", s.simTime/uniformTime)
			}
			// Flop-derived times on small models are fractions of a
			// second; %g keeps them legible at any scale.
			t.AddRow(method, v.label,
				s.mark()+fmt.Sprintf("%.0f", s.aggs),
				s.mark()+fmt.Sprintf("%.2f", s.gflops),
				s.mark()+fmt.Sprintf("%.3g", s.simTime),
				slowdown)
		}
	}
	return []*Table{t}, nil
}
