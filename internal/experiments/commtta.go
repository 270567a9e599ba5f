package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtext"
)

// runCommTTA is the communication-pricing payoff table: FedTrip on the
// buffered async runtime over a bandwidth-tiered, churning, FLOP-coupled
// fleet, comparing uplink transports. With the network priced from each
// dispatch's *measured* wire bytes, a sparsifying transport does not just
// shrink the comm column — it finishes uploads sooner, so the
// accuracy/bytes/sim-time trade-off is visible in one table.
//
// Rows: dense float32, 8-bit delta quantization (±error feedback), top-k
// and rand-k sparsification with error feedback. Columns: aggregations,
// wire MB, and simulated seconds to the adaptive target, plus sim-time
// speedup over dense and final accuracy. All rows share the same round
// budget, fleet, and seeds; only the transport differs.
func runCommTTA(p Profile, logf Logf) ([]*Table, error) {
	bandwidth := p.Bandwidth
	if bandwidth == "" || bandwidth == "none" {
		bandwidth = "tiered"
	}
	devices := p.Devices
	if devices == "" || devices == "none" {
		devices = "tiered"
	}
	churn := p.Churn
	if churn == "" || churn == "none" {
		churn = "markov:40,10"
	}
	transports := []string{"f32", "q8", "q8+ef", "topk:0.01+ef", "randk:0.05"}
	mkCase := func(transport string) runtext.Command {
		return p.mlpMNIST("fedtrip", runtext.Selection{
			Runtime: core.RuntimeAsync, Policy: "fedbuff", Devices: devices,
			Churn: churn, Bandwidth: bandwidth, Transport: transport,
		})
	}
	// The adaptive target calibrates against the dense-f32 row: every
	// compressor is then measured against the same accuracy bar.
	denseRef, err := p.RunTrials(mkCase(transports[0]), logf)
	if err != nil {
		return nil, err
	}
	target := adaptiveTarget(denseRef)

	t := &Table{
		ID:    "comm-tta",
		Title: "Communication-priced time to accuracy (FedTrip, MLP/MNIST, Dir-0.5): transports under a bandwidth-tiered churning fleet",
		Headers: []string{
			"Transport", "Aggs to target", "Wire MB", "Sim time (s)", "Speedup", "Final acc",
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("bandwidth %s, devices %s, churn %s; adaptive target %.4f (0.97x dense-f32 final)", bandwidth, devices, churn, target),
		"wire MB and sim time are cumulative at the target round; each dispatch pays rtt + measured-bytes/bandwidth on top of its FLOP-derived compute time",
		"speedup = dense-f32 sim-time / row sim-time (only when both reached the target); >marks: target not reached, full-run resources shown",
	)
	var denseTime float64
	denseReached := false
	for i, transport := range transports {
		var results []*core.Result
		if i == 0 {
			results = denseRef
		} else {
			results, err = p.RunTrials(mkCase(transport), logf)
			if err != nil {
				return nil, err
			}
		}
		s := summarise(results, target)
		if i == 0 {
			denseTime = s.simTime
			denseReached = s.reached
		}
		speedup := "-"
		if i > 0 && s.simTime > 0 && s.reached && denseReached {
			speedup = fmt.Sprintf("%.1fx", denseTime/s.simTime)
		}
		t.AddRow(transport,
			s.mark()+fmt.Sprintf("%.0f", s.aggs),
			s.mark()+fmt.Sprintf("%.2f", s.mb),
			s.mark()+fmt.Sprintf("%.1f", s.simTime),
			speedup,
			fmt.Sprintf("%.4f", s.final))
	}
	return []*Table{t}, nil
}
