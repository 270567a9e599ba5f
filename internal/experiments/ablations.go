package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
	"repro/internal/stats"
)

// ablationCell is a CNN/MNIST Dir-0.5 run of method, the cell every
// ablation table varies.
func (p Profile) ablationCell(method string) runtext.Command {
	return p.cell(data.KindMNIST, nn.ArchCNN, partition.Dirichlet(0.5), method, runtext.Selection{})
}

// ablationBase runs the FedAvg reference the ablation tables use for their
// adaptive target.
func ablationBase(p Profile, logf Logf) ([]*core.Result, float64, error) {
	fedavg, err := p.RunTrials(p.ablationCell("fedavg"), logf)
	if err != nil {
		return nil, 0, err
	}
	return fedavg, adaptiveTarget(fedavg), nil
}

// runVariants fills an ablation table: one row per FedTrip variant, its
// method text in the order FedTrip prints it (mu, xi mode, fixed xi,
// global weight, history weight).
func runVariants(p Profile, logf Logf, t *Table, target float64, variants [][2]string) error {
	for _, v := range variants {
		rs, err := p.RunTrials(p.ablationCell(v[1]), logf)
		if err != nil {
			return err
		}
		mean, reached := meanRoundsToTarget(rs, target)
		var best []float64
		for _, r := range rs {
			best = append(best, r.BestAccuracy)
		}
		t.AddRow(v[0], formatRounds(mean, reached), stats.Summarize(best).String())
	}
	return nil
}

// runAblationXi compares FedTrip's xi schedules: the default inverse-gap
// (matching the paper's convergence analysis), the literal gap reading,
// fixed xi=1, and xi=0 (which reduces FedTrip to a proximal term with
// FedTrip's mu).
func runAblationXi(p Profile, logf Logf) ([]*Table, error) {
	_, target, err := ablationBase(p, logf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-xi",
		Title:   fmt.Sprintf("FedTrip xi schedule ablation (CNN/MNIST, Dir-0.5, target %.4f)", target),
		Headers: []string{"Variant", "Rounds to target", "Best accuracy"},
	}
	err = runVariants(p, logf, t, target, [][2]string{
		{"xi = 1/gap (paper analysis, default)", "fedtrip:0.4,0,0,1,1"},
		{"xi = gap (literal Sec IV.B)", "fedtrip:0.4,1,0,1,1"},
		{"xi = 1 (fixed)", "fedtrip:0.4,2,1,1,1"},
		{"xi = 0 (history off -> proximal mu=0.4)", "fedtrip:0.4,2,0,1,1"},
	})
	return []*Table{t}, err
}

// runAblationHistory isolates FedTrip's two regularization terms: full
// triplet, history-repulsion only (global pull off), and global pull only
// (history off).
func runAblationHistory(p Profile, logf Logf) ([]*Table, error) {
	_, target, err := ablationBase(p, logf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-hist",
		Title:   fmt.Sprintf("FedTrip term ablation (CNN/MNIST, Dir-0.5, target %.4f)", target),
		Headers: []string{"Variant", "Rounds to target", "Best accuracy"},
	}
	err = runVariants(p, logf, t, target, [][2]string{
		{"full triplet (pull + repel)", "fedtrip:0.4,0,0,1,1"},
		{"repel only (GlobalWeight=0)", "fedtrip:0.4,0,0,0,1"},
		{"pull only (HistWeight=0)", "fedtrip:0.4,0,0,1,0"},
	})
	return []*Table{t}, err
}

// runAblationAppendix compares FedTrip with the appendix/related-work
// methods (SCAFFOLD, FedDANE, MimeLite) on rounds, compute, and traffic —
// the full resource story of Table VIII brought to an actual run.
func runAblationAppendix(p Profile, logf Logf) ([]*Table, error) {
	_, target, err := ablationBase(p, logf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "abl-extra",
		Title:   fmt.Sprintf("Appendix methods vs FedTrip (CNN/MNIST, Dir-0.5, target %.4f)", target),
		Headers: []string{"Method", "Rounds to target", "GFLOPs to target", "Comm MB to target"},
	}
	for _, method := range []string{"fedtrip", "fedavg", "scaffold", "feddane", "mimelite"} {
		rs, err := p.RunTrials(p.ablationCell(method), logf)
		if err != nil {
			return nil, err
		}
		s := summarise(rs, target)
		t.AddRow(method, formatRounds(s.aggs, s.reached),
			fmt.Sprintf("%.2f", s.gflops),
			fmt.Sprintf("%.2f", s.mb))
	}
	return []*Table{t}, nil
}
