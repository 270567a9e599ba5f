package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/stats"
)

// fedTripVariant builds an ablation Case around a customised FedTrip.
func fedTripVariant(key string, mutate func(*core.FedTrip)) Case {
	return Case{
		Kind:   data.KindMNIST,
		Arch:   nn.ArchCNN,
		Scheme: partition.Dirichlet(0.5),
		Algo:   "fedtrip",
		Factory: func() core.Algorithm {
			f := core.NewFedTrip(0.4)
			mutate(f)
			return f
		},
		FactoryKey: key,
	}
}

// ablationBase runs the FedAvg reference the ablation tables use for their
// adaptive target.
func ablationBase(p Profile, logf Logf) ([]*core.Result, float64, error) {
	fedavg, err := p.RunTrials(Case{
		Kind: data.KindMNIST, Arch: nn.ArchCNN,
		Scheme: partition.Dirichlet(0.5), Algo: "fedavg",
	}, logf)
	if err != nil {
		return nil, 0, err
	}
	return fedavg, adaptiveTarget(fedavg), nil
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
	variants := []struct {
		label string
		c     Case
	}{
		{"xi = 1/gap (paper analysis, default)", fedTripVariant("xi-inverse", func(f *core.FedTrip) {})},
		{"xi = gap (literal Sec IV.B)", fedTripVariant("xi-gap", func(f *core.FedTrip) { f.Mode = core.XiGap })},
		{"xi = 1 (fixed)", fedTripVariant("xi-fixed-1", func(f *core.FedTrip) { f.Mode = core.XiFixed; f.FixedXi = 1 })},
		{"xi = 0 (history off -> proximal mu=0.4)", fedTripVariant("xi-fixed-0", func(f *core.FedTrip) { f.Mode = core.XiFixed; f.FixedXi = 0 })},
	}
	for _, v := range variants {
		rs, err := p.RunTrials(v.c, logf)
		if err != nil {
			return nil, err
		}
		mean, reached := meanRoundsToTarget(rs, target)
		var best []float64
		for _, r := range rs {
			best = append(best, r.BestAccuracy)
		}
		t.AddRow(v.label, formatRounds(mean, reached), stats.Summarize(best).String())
	}
	return []*Table{t}, nil
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
	variants := []struct {
		label string
		c     Case
	}{
		{"full triplet (pull + repel)", fedTripVariant("terms-full", func(f *core.FedTrip) {})},
		{"repel only (GlobalWeight=0)", fedTripVariant("terms-repel", func(f *core.FedTrip) { f.GlobalWeight = 0 })},
		{"pull only (HistWeight=0)", fedTripVariant("terms-pull", func(f *core.FedTrip) { f.HistWeight = 0 })},
	}
	for _, v := range variants {
		rs, err := p.RunTrials(v.c, logf)
		if err != nil {
			return nil, err
		}
		mean, reached := meanRoundsToTarget(rs, target)
		var best []float64
		for _, r := range rs {
			best = append(best, r.BestAccuracy)
		}
		t.AddRow(v.label, formatRounds(mean, reached), stats.Summarize(best).String())
	}
	return []*Table{t}, nil
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
		rs, err := p.RunTrials(Case{
			Kind: data.KindMNIST, Arch: nn.ArchCNN,
			Scheme: partition.Dirichlet(0.5), Algo: method,
			Params: DefaultParams(method, nn.ArchCNN, data.KindMNIST),
		}, logf)
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
