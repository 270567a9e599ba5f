package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/prng"
	"repro/internal/trace"
)

// runFig3 quantifies the mechanism Fig. 3 illustrates conceptually. For
// FedAvg, FedProx, and FedTrip on the same task it measures, over the last
// third of training:
//
//   - mean ||w_k^t - w^{t-1}||  (global-local divergence — what the pull
//     term suppresses), and
//   - mean ||w_k^t - w_k^prev|| (current-historical distance — what the
//     repulsion term keeps from collapsing).
//
// The paper's claim: FedProx shrinks the first at the cost of exploration;
// FedTrip keeps the first small (update consistency) while sustaining the
// second (parameter-space exploration).
func runFig3(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Update-geometry mechanism (CNN/MNIST Dir-0.5, mean over last third of rounds)",
		Headers: []string{"Method", "||w_k - w_global||", "||w_k - w_hist||", "final accuracy"},
	}
	for _, method := range []string{"fedavg", "fedprox", "fedtrip"} {
		c := Case{
			Kind: data.KindMNIST, Arch: nn.ArchCNN, Scheme: partition.Dirichlet(0.5),
			Algo: method, Params: DefaultParams(method, nn.ArchCNN, data.KindMNIST),
		}
		cfg, err := p.config(c, p.Seed)
		if err != nil {
			return nil, err
		}
		col := trace.NewCollector()
		logf.printf("fig3: tracing %s", method)
		// Case.runSpec routes the trace run through the profile's runtime
		// selection; the collector rides along as OnUpdates, which every
		// runtime honors.
		cfg.OnUpdates = col.Hook()
		rspec, err := c.runSpec(p, cfg)
		if err != nil {
			return nil, err
		}
		res, err := core.Start(rspec)
		if err != nil {
			return nil, err
		}
		g, h := col.TailMeans(p.Rounds / 3)
		hCell := "n/a"
		if !math.IsNaN(h) {
			hCell = fmt.Sprintf("%.4f", h)
		}
		t.AddRow(method, fmt.Sprintf("%.4f", g), hCell, fmt.Sprintf("%.4f", res.FinalAccuracy))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 3 claim: regularized methods keep local updates near the global model;",
		"FedTrip additionally sustains distance from each client's previous upload (exploration)")
	return []*Table{t}, nil
}

// runTheoryXi empirically validates the staleness-coefficient analysis
// behind Theorem 1: with uniform K-of-N selection the participation gap is
// geometric with success probability p = K/N, and the expectation of
// xi = 1/gap is p*ln(p)/(p-1) (the paper's E[xi_k] coefficient). The
// experiment simulates long selection sequences through the actual FedTrip
// Xi code path and compares against the closed form.
// It is pure selection-sequence simulation — no federated run, so the
// profile's runtime selection has nothing to reach.
func runTheoryXi(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "theory-xi",
		Title:   "E[xi] vs participation rate (Theorem 1 coefficient p*ln(p)/(p-1))",
		Headers: []string{"p (K/N)", "setting", "empirical E[xi]", "closed form", "rel err"},
	}
	f := core.NewFedTrip(0.4)
	rng := prng.Stream(p.Seed, streamXi, 0)
	settings := []struct {
		k, n  int
		label string
	}{
		{4, 10, "4-of-10 (paper default)"},
		{4, 20, "4-of-20"},
		{4, 50, "4-of-50 (Table VI)"},
		{1, 10, "1-of-10"},
	}
	const rounds = 200000
	for _, s := range settings {
		prob := float64(s.k) / float64(s.n)
		var sum float64
		var count int
		last := 0
		for round := 1; round <= rounds; round++ {
			if rng.Float64() < prob {
				if last > 0 {
					sum += f.Xi(round, last)
					count++
				}
				last = round
			}
		}
		empirical := sum / float64(count)
		closed := prob * math.Log(prob) / (prob - 1)
		t.AddRow(fmt.Sprintf("%.2f", prob), s.label,
			fmt.Sprintf("%.4f", empirical),
			fmt.Sprintf("%.4f", closed),
			fmt.Sprintf("%.2f%%", 100*math.Abs(empirical-closed)/closed))
	}
	t.Notes = append(t.Notes,
		"xi = 1/gap makes E[xi] = sum_g p(1-p)^{g-1}/g = p*ln(p)/(p-1), the coefficient in Theorem 1's Q_t",
		"lower participation -> smaller xi -> weaker history repulsion, matching Sec V.D's scalability discussion")
	return []*Table{t}, nil
}
