package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
	"repro/internal/stats"
)

// runExtQuant is an extension experiment beyond the paper: FedTrip
// reduces communication by needing fewer rounds; uplink quantization
// (the q<bits> transport, comm.ParseTransport) reduces bytes per round. This experiment shows the
// two compose — FedTrip with an 8-bit delta-quantized uplink keeps its
// convergence while cutting upload traffic ~4x versus float32, and
// degrades gracefully at 4 bits.
func runExtQuant(p Profile, logf Logf) ([]*Table, error) {
	// Every variant is a table cell, so the profile's runtime selection
	// (-runtime/-latency/-device-dist/-dropout) reaches this experiment
	// like any table-driven one; only the uplink transport varies per row
	// ("" = the paper's analytic float32 accounting).
	runVariant := func(transport string) (*core.Result, core.RunSpec, error) {
		spec, err := p.cell(data.KindMNIST, nn.ArchCNN, partition.Dirichlet(0.5), "fedtrip",
			runtext.Selection{Transport: transport}).RunSpec()
		if err != nil {
			return nil, spec, err
		}
		res, err := core.Start(spec)
		return res, spec, err
	}
	t := &Table{
		ID:      "ext-quant",
		Title:   "FedTrip with quantized uplink (CNN/MNIST Dir-0.5): rounds vs upload bytes",
		Headers: []string{"Uplink", "Best accuracy", "Final accuracy", "Rounds to 0.9", "Upload MB"},
	}
	// Baseline: float32 shipping (the paper's convention) = bits 0 path
	// with analytic bytes from the model size.
	base, baseSpec, err := runVariant("")
	if err != nil {
		return nil, err
	}
	model, err := baseSpec.Model.Build(1)
	if err != nil {
		return nil, err
	}
	f32Bytes := func(rounds int) int64 {
		return int64(rounds) * int64(p.PerRound) * int64(4*model.NumParams())
	}
	logf.printf("ext-quant: baseline done")
	addRow := func(label string, res *core.Result, upMB float64) {
		rt := stats.RoundsToTarget(res.Accuracy, 0.9)
		rtStr := fmt.Sprintf("%d", rt)
		if rt < 0 {
			rtStr = fmt.Sprintf(">%d", res.Rounds)
		}
		t.AddRow(label,
			fmt.Sprintf("%.4f", res.BestAccuracy),
			fmt.Sprintf("%.4f", res.FinalAccuracy),
			rtStr,
			fmt.Sprintf("%.2f", upMB))
	}
	addRow("float32 (paper)", base, float64(f32Bytes(base.Rounds))/1e6)
	for _, q := range []string{"q8", "q4"} {
		res, spec, err := runVariant(q)
		if err != nil {
			return nil, err
		}
		logf.printf("ext-quant: %s-bit done", q[1:])
		addRow(q[1:]+"-bit delta", res, float64(spec.Transport.(*comm.Transport).Stats().UpBytes())/1e6)
	}
	t.Notes = append(t.Notes,
		"uplink deltas are quantized against the received model (error feedback-free delta encoding)",
		"downlink stays float32 in all rows; upload MB is measured wire traffic")
	return []*Table{t}, nil
}
