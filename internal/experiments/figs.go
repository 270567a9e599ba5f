package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hetero"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/tsne"
)

// runFig2 reproduces the motivation experiment of Fig. 2: train FedAvg
// (CNN, MNIST-like, Dir-0.5), snapshot the global model at the final round
// and client 0's local model at the final and an earlier round, then
// quantify class separability of the test-set representations via t-SNE
// embeddings and silhouette scores. The paper's qualitative claims become
// two inequalities: silhouette(global) > silhouette(local@final) >
// silhouette(local@earlier).
func runFig2(p Profile, logf Logf) ([]*Table, error) {
	// The run is a table cell, so the profile-level runtime selection
	// (-runtime/-latency/-device-dist/...) reaches it like any other; the
	// snapshot hooks ride along, and every runtime honors them.
	cmd := p.cell(data.KindMNIST, nn.ArchCNN, partition.Dirichlet(0.5), "fedavg", runtext.Selection{})
	rspec, err := cmd.RunSpec()
	if err != nil {
		return nil, err
	}
	earlierRound := (p.Rounds * 3) / 5
	if earlierRound < 1 {
		earlierRound = 1
	}
	// Client 0's local model is its latest merged upload (nil until it has
	// one). Both hooks run on the server goroutine, so neither touches a
	// client that may be training on a shard.
	var upload0, globalFinal, localFinal, localEarlier []float64
	rspec.OnUpdates = func(_ int, _ []float64, updates []core.Update) {
		for i := range updates {
			if updates[i].ClientID == 0 {
				upload0 = updates[i].Vector(upload0)
			}
		}
	}
	rspec.OnRound = func(round int, s *core.Server) {
		if round == earlierRound {
			localEarlier = slices.Clone(upload0)
		}
		if round == p.Rounds {
			globalFinal = slices.Clone(s.Global())
			localFinal = slices.Clone(upload0)
		}
	}
	logf.printf("fig2: fedtrip %s", cmd.Line())
	if _, err := core.Start(rspec); err != nil {
		return nil, err
	}
	if localEarlier == nil {
		localEarlier = globalFinal // client 0 never selected early: degenerate but safe
	}
	if localFinal == nil {
		localFinal = localEarlier
	}

	nEmbed := min(150, rspec.Test.Len())
	t := &Table{
		ID:      "fig2",
		Title:   fmt.Sprintf("Representation separability (silhouette), CNN/MNIST Dir-0.5, %d test points", nEmbed),
		Headers: []string{"Model snapshot", "Silhouette (features)", "Silhouette (t-SNE 2D)"},
	}
	snaps := []struct {
		label  string
		params []float64
	}{
		{fmt.Sprintf("global @ round %d", p.Rounds), globalFinal},
		{fmt.Sprintf("client0 local @ round %d", p.Rounds), localFinal},
		{fmt.Sprintf("client0 local @ round %d", earlierRound), localEarlier},
	}
	model, err := rspec.Model.Build(1)
	if err != nil {
		return nil, err
	}
	for _, snap := range snaps {
		feat, labels, err := featuresOf(model, snap.params, rspec.Test, nEmbed)
		if err != nil {
			return nil, err
		}
		d := model.FeatureDim()
		silF, err := tsne.Silhouette(feat, labels, nEmbed, d)
		if err != nil {
			return nil, err
		}
		emb, err := tsne.Embed(feat, nEmbed, d, tsne.Config{Iters: 250, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		silE, err := tsne.Silhouette(emb, labels, nEmbed, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow(snap.label, fmt.Sprintf("%.4f", silF), fmt.Sprintf("%.4f", silE))
	}
	t.Notes = append(t.Notes,
		"paper claim: global features separate best; newer local models beat older ones",
		"silhouette quantifies the paper's qualitative t-SNE scatter plots")
	return []*Table{t}, nil
}

// featuresOf loads params into model and extracts the representation of
// the first n test samples.
func featuresOf(model *nn.Model, params []float64, ds *data.Dataset, n int) ([]float64, []int, error) {
	model.SetParams(params)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	shape := append([]int{n}, model.InShape()...)
	x := tensor.New(shape...)
	labels := make([]int, n)
	ds.FillBatch(x, labels, idx)
	model.Forward(x, false)
	feat := model.Features()
	out := make([]float64, feat.Numel())
	copy(out, feat.Data)
	return out, labels, nil
}

// runFig4 reproduces Fig. 4: per-client label distributions on MNIST under
// the four heterogeneity settings.
func runFig4(p Profile, logf Logf) ([]*Table, error) {
	schemes := []partition.Scheme{
		partition.Dirichlet(0.1),
		partition.Dirichlet(0.5),
		partition.Orthogonal(5),
		partition.Orthogonal(10),
	}
	summary := &Table{
		ID:      "fig4",
		Title:   "Heterogeneity indices per scheme (internal/hetero)",
		Headers: []string{"Scheme", "Mean entropy", "Pairwise TV", "TV to global", "Mean #classes"},
	}
	var tables []*Table
	for _, s := range schemes {
		cmd := p.cell(data.KindMNIST, nn.ArchMLP, s, "fedavg", runtext.Selection{})
		cfg, err := cmd.Config()
		if err != nil {
			return nil, err
		}
		train, parts := cfg.Train, cfg.Parts
		counts := partition.LabelCounts(parts, train.Y, train.Classes)
		headers := []string{"Client"}
		for c := 0; c < train.Classes; c++ {
			headers = append(headers, fmt.Sprintf("c%d", c))
		}
		headers = append(headers, "#classes")
		t := &Table{
			ID:      "fig4",
			Title:   fmt.Sprintf("Label distribution under %s (MNIST, %d clients x %d samples)", s, cmd.Clients, cmd.Samples),
			Headers: headers,
		}
		eff := partition.EffectiveClasses(counts)
		for k, row := range counts {
			cells := []string{fmt.Sprintf("%d", k+1)}
			for _, v := range row {
				cells = append(cells, fmt.Sprintf("%d", v))
			}
			cells = append(cells, fmt.Sprintf("%d", eff[k]))
			t.AddRow(cells...)
		}
		tables = append(tables, t)
		h, err := hetero.Analyze(counts)
		if err != nil {
			return nil, err
		}
		summary.AddRow(s.String(),
			fmt.Sprintf("%.3f", h.MeanEntropy),
			fmt.Sprintf("%.3f", h.MeanTVDistance),
			fmt.Sprintf("%.3f", h.MeanDivergence),
			fmt.Sprintf("%.1f", h.MeanEffectiveClasses))
	}
	tables = append(tables, summary)
	return tables, nil
}

// runFig5 reproduces Fig. 5: EMA-smoothed convergence curves of the CNN on
// three datasets under Dir-0.5 and Orthogonal-5, one table per panel.
func runFig5(p Profile, logf Logf) ([]*Table, error) {
	kinds := []data.Kind{data.KindMNIST, data.KindFMNIST, data.KindEMNIST}
	schemes := []partition.Scheme{partition.Dirichlet(0.5), partition.Orthogonal(5)}
	var tables []*Table
	for _, scheme := range schemes {
		for _, kind := range kinds {
			bc := column{arch: nn.ArchCNN, kind: kind}
			results, err := methodResults(p, bc, scheme, nil, logf)
			if err != nil {
				return nil, err
			}
			every := p.Fig5EveryRounds
			if every <= 0 {
				every = 5
			}
			headers := []string{"Method"}
			for r := every; r <= p.Rounds; r += every {
				headers = append(headers, fmt.Sprintf("r%d", r))
			}
			t := &Table{
				ID:      "fig5",
				Title:   fmt.Sprintf("Test accuracy (EMA-smoothed) of CNN on %s under %s", kind, scheme),
				Headers: headers,
			}
			for _, method := range PaperMethods() {
				// Average the accuracy trajectories over trials, then smooth.
				rs := results[method]
				avg := make([]float64, p.Rounds)
				for _, r := range rs {
					for i := range r.Accuracy {
						avg[i] += r.Accuracy[i] / float64(len(rs))
					}
				}
				sm := stats.EMA(avg, 0.3)
				row := []string{method}
				for r := every; r <= p.Rounds; r += every {
					row = append(row, fmt.Sprintf("%.3f", sm[r-1]))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// runFig6 reproduces Fig. 6: boxplots of final accuracy (mean of the last
// 10 rounds per the paper; here the box is over the last-10-round
// accuracies pooled across trials) for CNN and MLP on FMNIST under four
// heterogeneity types.
func runFig6(p Profile, logf Logf) ([]*Table, error) {
	schemes := []partition.Scheme{
		partition.Orthogonal(10),
		partition.Orthogonal(5),
		partition.Dirichlet(0.1),
		partition.Dirichlet(0.5),
	}
	var tables []*Table
	for _, arch := range []nn.Arch{nn.ArchCNN, nn.ArchMLP} {
		headers := []string{"Method"}
		for _, s := range schemes {
			headers = append(headers, s.String())
		}
		t := &Table{
			ID:      "fig6",
			Title:   fmt.Sprintf("Final accuracy distribution (%s on FMNIST): median [q1,q3]", arch),
			Headers: headers,
		}
		for _, method := range PaperMethods() {
			row := []string{method}
			for _, scheme := range schemes {
				bc := column{arch: arch, kind: data.KindFMNIST}
				results, err := methodResults(p, bc, scheme, nil, logf)
				if err != nil {
					return nil, err
				}
				var pool []float64
				for _, r := range results[method] {
					lo := len(r.Accuracy) - 10
					if lo < 0 {
						lo = 0
					}
					pool = append(pool, r.Accuracy[lo:]...)
				}
				b := stats.BoxStats(pool)
				row = append(row, fmt.Sprintf("%.3f [%.3f,%.3f]", b.Median, b.Q1, b.Q3))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// runFig7 reproduces Fig. 7: FedTrip's sensitivity to mu. For each panel
// (CNN/MNIST under Dir-0.1, Dir-0.5, Orthogonal-5; MLP/FMNIST under
// Dir-0.5) it sweeps mu and reports the best test accuracy and the rounds
// to the panel's adaptive target.
func runFig7(p Profile, logf Logf) ([]*Table, error) {
	panels := []struct {
		arch   nn.Arch
		kind   data.Kind
		scheme partition.Scheme
	}{
		{nn.ArchCNN, data.KindMNIST, partition.Dirichlet(0.1)},
		{nn.ArchCNN, data.KindMNIST, partition.Dirichlet(0.5)},
		{nn.ArchCNN, data.KindMNIST, partition.Orthogonal(5)},
		{nn.ArchMLP, data.KindFMNIST, partition.Dirichlet(0.5)},
	}
	var tables []*Table
	for _, panel := range panels {
		// Target derives from the FedAvg baseline of the same panel.
		fedavg, err := p.RunTrials(p.cell(panel.kind, panel.arch, panel.scheme, "fedavg", runtext.Selection{}), logf)
		if err != nil {
			return nil, err
		}
		target := adaptiveTarget(fedavg)
		t := &Table{
			ID:      "fig7",
			Title:   fmt.Sprintf("FedTrip mu sensitivity: %s/%s under %s (target %.4f)", panel.arch, panel.kind, panel.scheme, target),
			Headers: []string{"mu", "best accuracy", "rounds to target"},
		}
		for _, mu := range p.MuSweep {
			method := spec.T("fedtrip", mu).String()
			rs, err := p.RunTrials(p.cell(panel.kind, panel.arch, panel.scheme, method, runtext.Selection{}), logf)
			if err != nil {
				return nil, err
			}
			var best []float64
			for _, r := range rs {
				best = append(best, r.BestAccuracy)
			}
			mean, reached := meanRoundsToTarget(rs, target)
			t.AddRow(fmt.Sprintf("%.2f", mu),
				stats.Summarize(best).String(),
				formatRounds(mean, reached))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
