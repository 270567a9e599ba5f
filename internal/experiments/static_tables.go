package experiments

import (
	"fmt"

	"repro/internal/algos"
	"repro/internal/data"
	"repro/internal/flops"
	"repro/internal/nn"
)

// runTable1 reproduces Table I: the qualitative comparison of method
// families on information utilization and resource cost. Rather than
// hard-coding the paper's labels, the table derives them from this
// repository's implementations: "sufficient" information utilization
// means the method consumes both global and historical model information,
// and the resource-cost label comes from the Appendix A attaching-cost
// model evaluated on the paper's CNN setting (High when the attaching
// FLOPs exceed 10% of the base training FLOPs).
func runTable1(p Profile, logf Logf) ([]*Table, error) {
	st, err := data.TableII(data.KindMNIST)
	if err != nil {
		return nil, err
	}
	spec := nn.ModelSpec{Arch: nn.ArchCNN, Channels: st.Channels, Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: 1}
	m, err := spec.Build(1)
	if err != nil {
		return nil, err
	}
	cost := m.Cost()
	rp := flops.RoundParams{K: st.ClientSamples / 50, M: 50, N: st.ClientSamples, P: 1}
	base := float64(rp.K) * float64(rp.M) * (cost.Forward + cost.Backward)

	usesHistory := map[string]bool{"fedtrip": true, "moon": true}
	usesGlobal := map[string]bool{
		"fedtrip": true, "fedprox": true, "moon": true, "feddyn": true,
		"scaffold": true, "feddane": true, "fedgkd": true,
	}
	t := &Table{
		ID:      "table1",
		Title:   "Information utilization vs resource cost (derived from the implementations)",
		Headers: []string{"Method", "Global info", "Historical info", "Utilization", "Attach/base FLOPs", "Resource cost"},
	}
	for _, method := range []string{"fedprox", "feddyn", "moon", "fedgkd", "fedtrip"} {
		mc, err := flops.AttachCost(method, cost, rp)
		if err != nil {
			return nil, err
		}
		util := "Insufficient"
		if usesGlobal[method] && usesHistory[method] {
			util = "Sufficient"
		}
		ratio := mc.AttachFLOPs / base
		label := "Low"
		if ratio > 0.10 {
			label = "High"
		}
		t.AddRow(method,
			yesNo(usesGlobal[method]), yesNo(usesHistory[method]), util,
			fmt.Sprintf("%.4f", ratio), label)
	}
	t.Notes = append(t.Notes,
		"paper Table I: model regularization = insufficient/low, model representation = sufficient/high, FedTrip = sufficient/low")
	return []*Table{t}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// runTable2 reproduces Table II: the dataset description. These are the
// synthetic datasets' layouts, which match the paper's by construction.
func runTable2(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Description of datasets (synthetic substitutes, layouts per paper Table II)",
		Headers: []string{"Dataset", "Total Samples", "Classes", "Channels", "Dims", "Client Samples"},
	}
	for _, k := range data.Kinds() {
		st, err := data.TableII(k)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(st.Kind),
			fmt.Sprintf("%d", st.TotalSamples),
			fmt.Sprintf("%d", st.Classes),
			fmt.Sprintf("%d", st.Channels),
			fmt.Sprintf("%dx%d", st.Height, st.Width),
			fmt.Sprintf("%d", st.ClientSamples))
	}
	t.Notes = append(t.Notes, "datasets are procedural class-conditional generators (see DESIGN.md substitutions)")
	return []*Table{t}, nil
}

// runTable3 reproduces Table III: communication and computation statistics
// of the three models at paper scale.
func runTable3(p Profile, logf Logf) ([]*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Communication and computation statistics of models (paper-scale widths)",
		Headers: []string{"Model", "Communication(MB)", "Params(M)", "MFLOPs(fwd)", "Paper ref"},
	}
	cases := []struct {
		label string
		arch  nn.Arch
		kind  data.Kind
		ref   string
	}{
		{"MLP", nn.ArchMLP, data.KindMNIST, "0.3 MB / 0.08M / 0.08 MFLOPs"},
		{"CNN", nn.ArchCNN, data.KindMNIST, "0.24 MB / 0.06M / 0.42 MFLOPs"},
		{"AlexNet", nn.ArchAlexNet, data.KindCIFAR, "10.42 MB / 2.72M / 145.93 MFLOPs"},
	}
	for _, c := range cases {
		st, err := data.TableII(c.kind)
		if err != nil {
			return nil, err
		}
		spec := nn.ModelSpec{Arch: c.arch, Channels: st.Channels, Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: 1}
		m, err := spec.Build(1)
		if err != nil {
			return nil, err
		}
		cost := m.Cost()
		t.AddRow(c.label,
			fmt.Sprintf("%.2f", float64(cost.CommBytesFloat32())/1e6),
			fmt.Sprintf("%.3f", float64(cost.Params)/1e6),
			fmt.Sprintf("%.2f", cost.Forward/1e6),
			c.ref)
	}
	t.Notes = append(t.Notes,
		"MFLOPs counts 2 FLOPs per MAC; the paper's column appears to count MACs",
		"the paper's Params(M) column for MLP/CNN is 10x its own Communication column; the byte sizes match our models")
	return []*Table{t}, nil
}

// runTable8 reproduces Appendix A's Table VIII: the analytic attaching
// cost of each method, instantiated for the paper's CNN setting (600
// samples/client, batch 50, 1 epoch -> K=12 iterations).
func runTable8(p Profile, logf Logf) ([]*Table, error) {
	st, err := data.TableII(data.KindMNIST)
	if err != nil {
		return nil, err
	}
	spec := nn.ModelSpec{Arch: nn.ArchCNN, Channels: st.Channels, Height: st.Height, Width: st.Width, Classes: st.Classes, Scale: 1}
	m, err := spec.Build(1)
	if err != nil {
		return nil, err
	}
	cost := m.Cost()
	rp := flops.RoundParams{K: st.ClientSamples / 50, M: 50, N: st.ClientSamples, P: 1}
	t := &Table{
		ID:      "table8",
		Title:   fmt.Sprintf("Attaching cost per client per round (CNN, |w|=%d, K=%d, M=%d, n=%d)", cost.Params, rp.K, rp.M, rp.N),
		Headers: []string{"Method", "Attach MFLOPs", "Extra comm (x|w|)", "Formula"},
	}
	formulas := map[string]string{
		"fedtrip":  "4K|w|",
		"fedavg":   "0",
		"fedprox":  "2K|w|",
		"slowmo":   "4|w| (server)",
		"moon":     "K*M*(1+p)*FP",
		"feddyn":   "4K|w|",
		"scaffold": "2(K+1)|w| + n(FP+BP)",
		"feddane":  "2K|w| + n(FP+BP)",
		"mimelite": "n(FP+BP)",
		"fedgkd":   "K*M*FP (teacher fwd)",
		"fednova":  "4|w| (server)",
	}
	for _, method := range algos.Names() {
		mc, err := flops.AttachCost(method, cost, rp)
		if err != nil {
			return nil, err
		}
		t.AddRow(method,
			fmt.Sprintf("%.3f", mc.AttachFLOPs/1e6),
			fmt.Sprintf("%.0f", mc.ExtraCommFactor),
			formulas[method])
	}
	t.Notes = append(t.Notes, "FP/BP are per-sample forward/backward FLOPs; BP modelled as 2*FP")
	return []*Table{t}, nil
}
