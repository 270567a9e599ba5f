package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtext"
	"repro/internal/stats"
)

// runRobust races aggregation policies against a growing Byzantine
// fraction on the churning tiered fleet — the graceful-degradation
// counterpart to the hetero table. Every run is FedTrip on the buffered
// async runtime with FLOP-coupled tiered devices, adaptive local steps,
// and horizon-calibrated Markov churn; the adversary sign-flips the
// configured fraction of the fleet's uploads. The policies:
//
//   - "fedavg": the plain sample-weighted mean — every admitted update
//     moves the model, so flipped uploads pull it straight backwards.
//   - "median": coordinate-wise median — breakdown point 1/2.
//   - "trimmedmean:0.25": drops the extreme quarter of each coordinate's
//     tails before averaging.
//   - "fedavg+clip:1": the mean behind a norm-clip guard — corrupted
//     updates still count, but only after being pulled back onto the
//     admissible ball around the global model.
//
// Cells report mean final accuracy per Byzantine fraction, with ">"
// marking runs that never reached the honest-fleet adaptive target —
// the table shows where each policy stops holding the target as the
// adversary grows.
func runRobust(p Profile, logf Logf) ([]*Table, error) {
	policies := []string{"fedavg", "median", "trimmedmean:0.25", "fedavg+clip:1"}
	fractions := []float64{0, 0.1, 0.2, 0.3}
	perRound := p.PerRound
	buffer := p.Buffer
	if buffer == 0 {
		buffer = perRound
	}
	baseCase := func(policy string, frac float64, churnSpec string) runtext.Command {
		c := p.mlpMNIST("fedtrip", runtext.Selection{
			Runtime: core.RuntimeAsync, Policy: policy, Buffer: buffer,
			Devices: "tiered", AdaptiveSteps: true, Churn: churnSpec,
		})
		// Update-budget equalization as in the hetero table: Rounds
		// counts aggregations and each merges `buffer` updates.
		c.Rounds = (p.Rounds*perRound + buffer - 1) / buffer
		if frac > 0 {
			c.Faults = (&core.FaultModel{ByzFraction: frac, Mode: "signflip"}).String()
		}
		return c
	}
	// Calibrate the target and the churn timescales from the honest
	// fedavg fleet, exactly like the hetero table: availability must live
	// on the flop-derived clock, and every policy is measured against the
	// same honest-fleet bar.
	ref, err := p.RunTrials(baseCase("fedavg", 0, ""), logf)
	if err != nil {
		return nil, err
	}
	target := adaptiveTarget(ref)
	var horizon []float64
	for _, r := range ref {
		horizon = append(horizon, r.SimTimeByRound[len(r.SimTimeByRound)-1])
	}
	h := stats.Mean(horizon)
	churnSpec := fmt.Sprintf("markov:%.6g,%.6g", h/3, h/15)

	t := &Table{
		ID:      "robust",
		Title:   "Robust aggregation under Byzantine sign-flip (FedTrip MLP/MNIST, Dir-0.5, churning tiered fleet)",
		Headers: []string{"Policy", "Byz 0%", "Byz 10%", "Byz 20%", "Byz 30%"},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cells: mean final accuracy; > marks runs that never reached the adaptive target %.4f (0.97x honest-fleet FedAvg final)", target),
		fmt.Sprintf("buffer %d, update-budget-equalized; tiered 0.25x/1x/4x devices, adaptive local steps, churn %s", buffer, churnSpec),
		"byz:F,signflip negates the trained model of fraction F of the fleet at upload time; faults ride transports and churn like honest updates",
	)
	for _, policy := range policies {
		row := []string{policy}
		for _, frac := range fractions {
			results, err := p.RunTrials(baseCase(policy, frac, churnSpec), logf)
			if err != nil {
				return nil, err
			}
			s := summarise(results, target)
			row = append(row, s.mark()+fmt.Sprintf("%.4f", s.final))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
