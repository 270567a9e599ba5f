package experiments

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
)

func TestProfilesByName(t *testing.T) {
	for _, name := range []string{"fast", "paper", "tiny", ""} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Rounds <= 0 || p.Clients <= 0 || p.PerRound <= 0 {
			t.Fatalf("profile %q has zero fields: %+v", name, p)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"theory-xi", "theory-rho", "ext-quant", "tta", "hetero", "comm-tta", "robust", "abl-xi", "abl-hist", "abl-extra",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("registry[%d] = %q want %q", i, ids[i], id)
		}
		if _, ok := Get(id); !ok {
			t.Fatalf("Get(%q) failed", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id found")
	}
	if ErrUnknown("x") == nil {
		t.Fatal("ErrUnknown nil")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"A", "Blong"},
		Rows:    [][]string{{"row1cell", "x"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"demo", "Blong", "row1cell", "note: a note"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestStaticTables(t *testing.T) {
	p := Tiny()
	for _, id := range []string{"table1", "table2", "table3", "table8"} {
		e, _ := Get(id)
		tabs, err := e.Run(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) != 1 || len(tabs[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	e, _ := Get("table2")
	tabs, err := e.Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 4 {
		t.Fatalf("Table II must have 4 dataset rows, got %d", len(tabs[0].Rows))
	}
}

func TestTable8HasAllMethods(t *testing.T) {
	e, _ := Get("table8")
	tabs, err := e.Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 11 {
		t.Fatalf("Table VIII should list 11 methods, got %d", len(tabs[0].Rows))
	}
}

func TestRunCaching(t *testing.T) {
	ResetCaches()
	p := Tiny()
	c := p.mlpMNIST("fedavg", runtext.Selection{})
	r1, err := p.Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical cell not served from cache")
	}
	// A different method must not hit the same cache entry.
	r3, err := p.Run(p.mlpMNIST("fedprox", runtext.Selection{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different cell collided in cache")
	}
}

// Ablation variants are FedTrip method text: two variants are two lines,
// so they never share a cache entry.
func TestFactoryKeyDisambiguatesCache(t *testing.T) {
	p := Tiny()
	a := p.mlpMNIST("fedtrip:0.4,0,0,1,1", runtext.Selection{})
	b := p.mlpMNIST("fedtrip:0.4,1,0,1,1", runtext.Selection{}) // xi = gap
	if a.Line() == b.Line() {
		t.Fatalf("method variants share the cache key %q", a.Line())
	}
}

// The run cache must not collide across runtimes or aggregation
// policies: the same cell on sync, async/fedbuff, and async/fedasync are
// three different runs.
func TestCaseKeyIncludesRuntimeAndPolicy(t *testing.T) {
	p := Tiny()
	async := runtext.Selection{Runtime: core.RuntimeAsync, Latency: "straggler:1,10,3"}
	fedasync := async
	fedasync.Policy = "fedasync"
	keys := map[string]string{
		"sync":     p.mlpMNIST("fedavg", runtext.Selection{}).Line(),
		"fedbuff":  p.mlpMNIST("fedavg", async).Line(),
		"fedasync": p.mlpMNIST("fedavg", fedasync).Line(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Fatalf("cells %s and %s share cache key %q", prev, name, k)
		}
		seen[k] = name
	}
	// Profile-level runtime selection must shift every key too.
	pAsync := p
	pAsync.Runtime = core.RuntimeAsync
	pAsync.Latency = "exp:2"
	if p.mlpMNIST("fedavg", runtext.Selection{}).Line() == pAsync.mlpMNIST("fedavg", runtext.Selection{}).Line() {
		t.Fatal("profile runtime override did not change the cache key")
	}
}

// Every field of the selection, set on the cell or on the profile,
// reaches the key, and reaches it the same way from either side.
func TestCaseKeyCoversEverySelectionField(t *testing.T) {
	p := Tiny()
	base := p.mlpMNIST("fedavg", runtext.Selection{}).Line()
	typ := reflect.TypeOf(runtext.Selection{})
	for i := 0; i < typ.NumField(); i++ {
		var sel runtext.Selection
		switch f := reflect.ValueOf(&sel).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Selection.%s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		onProfile := p
		onProfile.Selection = sel
		onCell, fromProfile := p.mlpMNIST("fedavg", sel).Line(), onProfile.mlpMNIST("fedavg", runtext.Selection{}).Line()
		if onCell == base || fromProfile == base {
			t.Errorf("Selection.%s does not reach the cache key", typ.Field(i).Name)
		}
		if onCell != fromProfile {
			t.Errorf("Selection.%s keys differently on the cell and on the profile", typ.Field(i).Name)
		}
	}
}

// The cache key is the cell's command line, so it cannot leave a setting
// out: changing any registered flag on the cell, or any field of the
// profile a run reads (Clients, LR, AlexScale, a selection string, ...),
// changes the key. (The struct-printed key this replaced left out seven of
// the profile's fields: a Tiny profile at LR 0.5 was served the LR 0.01
// result.)
func TestCellLineCoversEveryFlag(t *testing.T) {
	p := Tiny()
	base := p.mlpMNIST("fedavg", runtext.Selection{})
	var cmd runtext.Command
	fs := flag.NewFlagSet("fedtrip", flag.ContinueOnError)
	cmd.Register(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		cmd = base
		v := "9"
		switch f.Name {
		case "algo":
			v = "fedprox"
		case "dataset":
			v = "fmnist"
		case "model", "scheme", "runtime":
			v = "x"
		case "local-steps-adaptive":
			v = "true"
		case "alpha", "scale", "lr", "momentum", "target", "clip", "flop-rate":
			v = "0.125"
		}
		if f.Value.String() == v {
			t.Fatalf("-%s already %s on the base cell", f.Name, v)
		}
		if err := fs.Set(f.Name, v); err != nil {
			t.Fatal(err)
		}
		if cmd.Line() == base.Line() {
			t.Errorf("-%s=%s does not reach the key %q", f.Name, v, base.Line())
		}
	})
	if n != 33 {
		t.Errorf("%d registered flags, want 20 task + 12 selection + flop-rate", n)
	}
	// Every cell the tables draw, by architecture and dataset: a profile
	// field that reaches none of their lines is one the key leaves out.
	lines := func(p Profile) string {
		var out []string
		for _, arch := range []nn.Arch{nn.ArchMLP, nn.ArchCNN, nn.ArchAlexNet} {
			for _, kind := range []data.Kind{data.KindMNIST, data.KindEMNIST, data.KindCIFAR} {
				out = append(out, p.cell(kind, arch, partition.Dirichlet(0.5), "fedtrip", runtext.Selection{}).Line())
			}
		}
		return strings.Join(out, "\n")
	}
	// Not run settings: how many trials, which mu values fig7 sweeps,
	// how fig5 samples its curves, the profile's name.
	skip := map[string]bool{"Name": true, "Repeats": true, "MuSweep": true, "Fig5EveryRounds": true}
	var fields []string
	typ := reflect.TypeOf(p)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Name == "Selection" {
			sel := typ.Field(i).Type
			for j := 0; j < sel.NumField(); j++ {
				fields = append(fields, "Selection."+sel.Field(j).Name)
			}
		} else if !skip[typ.Field(i).Name] {
			fields = append(fields, typ.Field(i).Name)
		}
	}
	for _, name := range fields {
		q := p
		f := reflect.ValueOf(&q).Elem().FieldByName(strings.TrimPrefix(name, "Selection."))
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Profile.%s: unhandled kind %s", name, f.Kind())
		}
		if lines(q) == lines(p) {
			t.Errorf("Profile.%s does not reach the key", name)
		}
	}
}

// The paper's §V.A settings are the method text the cell builder writes,
// spelled out as the method prints itself: FedTrip's mu 1.0 on MLP and
// 0.4 otherwise, FedDyn's alpha 1.0 on MNIST and 0.1 otherwise; a method
// the caller already gave arguments keeps them.
func TestDefaultParamsPaperValues(t *testing.T) {
	p := Tiny()
	for _, tc := range []struct {
		method string
		arch   nn.Arch
		kind   data.Kind
		want   string
	}{
		{"fedtrip", nn.ArchMLP, data.KindMNIST, "fedtrip:1,0,0,1,1"},
		{"fedtrip", nn.ArchCNN, data.KindMNIST, "fedtrip:0.4,0,0,1,1"},
		{"fedtrip:0.8", nn.ArchMLP, data.KindFMNIST, "fedtrip:0.8,0,0,1,1"},
		{"feddyn", nn.ArchCNN, data.KindMNIST, "feddyn:1"},
		{"feddyn", nn.ArchAlexNet, data.KindCIFAR, "feddyn:0.1"},
		{"fedprox", nn.ArchCNN, data.KindMNIST, "fedprox:0.1"},
		{"fedavg", nn.ArchCNN, data.KindMNIST, "fedavg"},
	} {
		if got := p.cell(tc.kind, tc.arch, partition.Dirichlet(0.5), tc.method, runtext.Selection{}).Algo; got != tc.want {
			t.Errorf("%s on %s/%s: -algo %s, want %s", tc.method, tc.arch, tc.kind, got, tc.want)
		}
	}
}

func TestAdaptiveHelpers(t *testing.T) {
	if got := formatRounds(12, true); got != "12" {
		t.Fatalf("formatRounds %q", got)
	}
	if got := formatRounds(30, false); got != ">30" {
		t.Fatalf("formatRounds unreached %q", got)
	}
	if got := speedupCell(20, true, 10); got != "20 (2.00x)" {
		t.Fatalf("speedupCell %q", got)
	}
}

// The tiny profile must be able to run a full round-based experiment
// (fig4 is pure partitioning; table7-style runs are covered by the MLP
// case below).
func TestFig4Tiny(t *testing.T) {
	e, _ := Get("fig4")
	tabs, err := e.Run(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 5 {
		t.Fatalf("fig4 should emit 4 distribution tables + 1 summary, got %d", len(tabs))
	}
	for _, tab := range tabs[:4] {
		if len(tab.Rows) != Tiny().Clients {
			t.Fatalf("fig4 table has %d rows, want %d", len(tab.Rows), Tiny().Clients)
		}
	}
	if len(tabs[4].Rows) != 4 {
		t.Fatalf("fig4 summary has %d rows, want 4 schemes", len(tabs[4].Rows))
	}
}

func TestMLPComparisonTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ResetCaches()
	p := Tiny()
	bc := column{label: "MLP/MNIST", arch: nn.ArchMLP, kind: data.KindMNIST}
	results, err := methodResults(p, bc, partition.Dirichlet(0.5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PaperMethods()) {
		t.Fatalf("got %d methods", len(results))
	}
	target := adaptiveTarget(results["fedavg"])
	if target <= 0 || target > 1 {
		t.Fatalf("adaptive target %v", target)
	}
}
