package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/stats"
)

// PaperMethods lists the six methods the paper's main tables compare, in
// table order.
func PaperMethods() []string {
	return []string{"fedtrip", "fedavg", "fedprox", "slowmo", "moon", "feddyn"}
}

// benchCase is one model/dataset column of Tables IV and V.
type benchCase struct {
	label string
	arch  nn.Arch
	kind  data.Kind
}

func table4Cases() []benchCase {
	return []benchCase{
		{"MLP/MNIST", nn.ArchMLP, data.KindMNIST},
		{"MLP/FMNIST", nn.ArchMLP, data.KindFMNIST},
		{"CNN/MNIST", nn.ArchCNN, data.KindMNIST},
		{"CNN/FMNIST", nn.ArchCNN, data.KindFMNIST},
		{"CNN/EMNIST", nn.ArchCNN, data.KindEMNIST},
		{"AlexNet/CIFAR", nn.ArchAlexNet, data.KindCIFAR},
	}
}

// methodResults runs every paper method for a case and returns
// method -> trials. clip > 0 enables uniform gradient clipping.
func methodResults(p Profile, bc benchCase, scheme partition.Scheme, clients, perRound, epochs int, clip float64, logf Logf) (map[string][]*core.Result, error) {
	out := make(map[string][]*core.Result)
	for _, method := range PaperMethods() {
		rs, err := p.RunTrials(Case{
			Kind:        bc.kind,
			Arch:        bc.arch,
			Scheme:      scheme,
			Algo:        method,
			Params:      DefaultParams(method, bc.arch, bc.kind),
			Clients:     clients,
			PerRound:    perRound,
			LocalEpochs: epochs,
			ClipNorm:    clip,
		}, logf)
		if err != nil {
			return nil, err
		}
		out[method] = rs
	}
	return out, nil
}

// runTable4 reproduces Table IV: communication rounds until the global
// model achieves the target accuracy, under Dir-0.5 with 4-of-10 clients.
func runTable4(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "table4",
		Title:   "Communication rounds to target accuracy (Dir-0.5, 4-of-10), ratio vs FedTrip",
		Headers: append([]string{"Method"}, labelsOf(table4Cases())...),
	}
	cells := map[string][]string{}
	scheme := partition.Dirichlet(0.5)
	for _, bc := range table4Cases() {
		results, err := methodResults(p, bc, scheme, 0, 0, 0, 0, logf)
		if err != nil {
			return nil, err
		}
		target := adaptiveTarget(results["fedavg"])
		tripMean, _ := meanRoundsToTarget(results["fedtrip"], target)
		t.Notes = append(t.Notes, fmt.Sprintf("%s: adaptive target %.4f (0.97x FedAvg best)", bc.label, target))
		for _, method := range PaperMethods() {
			mean, reached := meanRoundsToTarget(results[method], target)
			cell := formatRounds(mean, reached)
			if method != "fedtrip" {
				cell = speedupCell(mean, reached, tripMean)
			}
			cells[method] = append(cells[method], cell)
		}
	}
	for _, method := range PaperMethods() {
		t.AddRow(append([]string{method}, cells[method]...)...)
	}
	return []*Table{t}, nil
}

// runTable5 reproduces Table V: total GFLOPs (feedforward, backprop, and
// attaching operations, summed over all clients) until the target
// accuracy. It reuses Table IV's cached runs.
func runTable5(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "table5",
		Title:   "GFLOPs to target accuracy (Dir-0.5, 4-of-10)",
		Headers: append([]string{"Method"}, labelsOf(table4Cases())...),
	}
	cells := map[string][]string{}
	scheme := partition.Dirichlet(0.5)
	for _, bc := range table4Cases() {
		results, err := methodResults(p, bc, scheme, 0, 0, 0, 0, logf)
		if err != nil {
			return nil, err
		}
		target := adaptiveTarget(results["fedavg"])
		for _, method := range PaperMethods() {
			cells[method] = append(cells[method], fmt.Sprintf("%.2f", summarise(results[method], target).gflops))
		}
	}
	for _, method := range PaperMethods() {
		t.AddRow(append([]string{method}, cells[method]...)...)
	}
	t.Notes = append(t.Notes, "FLOPs are metered at runtime (model fwd/bwd + each method's attaching ops)")
	return []*Table{t}, nil
}

// runTable6 reproduces Table VI: rounds to target in the 4-of-50 low
// participation setting, CNN on MNIST and FMNIST under three
// heterogeneity types.
func runTable6(p Profile, logf Logf) ([]*Table, error) {
	type col struct {
		kind   data.Kind
		scheme partition.Scheme
	}
	cols := []col{
		{data.KindMNIST, partition.Dirichlet(0.1)},
		{data.KindMNIST, partition.Dirichlet(0.5)},
		{data.KindMNIST, partition.Orthogonal(5)},
		{data.KindFMNIST, partition.Dirichlet(0.1)},
		{data.KindFMNIST, partition.Dirichlet(0.5)},
		{data.KindFMNIST, partition.Orthogonal(5)},
	}
	headers := []string{"Method"}
	for _, c := range cols {
		headers = append(headers, fmt.Sprintf("%s %s", c.kind, c.scheme))
	}
	t := &Table{
		ID:      "table6",
		Title:   "Rounds to target accuracy with 4-of-50 clients (CNN), ratio vs FedTrip",
		Headers: headers,
	}
	cells := map[string][]string{}
	for _, c := range cols {
		bc := benchCase{arch: nn.ArchCNN, kind: c.kind}
		results, err := methodResults(p, bc, c.scheme, 50, 4, 0, 0, logf)
		if err != nil {
			return nil, err
		}
		target := adaptiveTarget(results["fedavg"])
		tripMean, _ := meanRoundsToTarget(results["fedtrip"], target)
		for _, method := range PaperMethods() {
			mean, reached := meanRoundsToTarget(results[method], target)
			cell := formatRounds(mean, reached)
			if method != "fedtrip" {
				cell = speedupCell(mean, reached, tripMean)
			}
			cells[method] = append(cells[method], cell)
		}
	}
	for _, method := range PaperMethods() {
		t.AddRow(append([]string{method}, cells[method]...)...)
	}
	return []*Table{t}, nil
}

// runTable7 reproduces Table VII: test accuracy at rounds 10 and 20 with
// enlarged aggregation intervals (5 and 10 local epochs), CNN on MNIST
// under Dir-0.5.
func runTable7(p Profile, logf Logf) ([]*Table, error) {
	pLocal := p
	if pLocal.Rounds > 20 {
		pLocal.Rounds = 20
	}
	t := &Table{
		ID:      "table7",
		Title:   "Accuracy (%) with 5 and 10 local epochs (CNN/MNIST, Dir-0.5)",
		Headers: []string{"Local epochs", "Round", "FedTrip", "FedAvg", "FedProx", "SlowMo", "MOON", "FedDyn"},
	}
	for _, epochs := range []int{5, 10} {
		bc := benchCase{arch: nn.ArchCNN, kind: data.KindMNIST}
		results, err := methodResults(pLocal, bc, partition.Dirichlet(0.5), 0, 0, epochs, 5, logf)
		if err != nil {
			return nil, err
		}
		for _, round := range []int{10, 20} {
			row := []string{fmt.Sprintf("%d", epochs), fmt.Sprintf("%d", round)}
			for _, method := range PaperMethods() {
				var accs []float64
				for _, r := range results[method] {
					ri := round
					if ri > len(r.Accuracy) {
						ri = len(r.Accuracy)
					}
					accs = append(accs, r.Accuracy[ri-1]*100)
				}
				row = append(row, fmt.Sprintf("%.2f", stats.Mean(accs)))
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}

func labelsOf(cases []benchCase) []string {
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.label
	}
	return out
}
