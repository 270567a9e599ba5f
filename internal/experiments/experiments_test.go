package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algos"
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
	c := Case{Kind: data.KindMNIST, Arch: nn.ArchMLP, Scheme: partition.Dirichlet(0.5), Algo: "fedavg"}
	r1, err := p.Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical case not served from cache")
	}
	// A different method must not hit the same cache entry.
	c2 := c
	c2.Algo = "fedprox"
	r3, err := p.Run(c2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different case collided in cache")
	}
}

func TestFactoryKeyDisambiguatesCache(t *testing.T) {
	a := fedTripVariant("variant-a", func(f *core.FedTrip) {})
	b := fedTripVariant("variant-b", func(f *core.FedTrip) { f.Mode = core.XiGap })
	p := Tiny()
	if a.key(p) == b.key(p) {
		t.Fatal("factory variants must have distinct cache keys")
	}
}

// The run cache must not collide across runtimes or aggregation
// policies: the same case on sync, async/fedbuff, and async/fedasync are
// three different runs.
func TestCaseKeyIncludesRuntimeAndPolicy(t *testing.T) {
	p := Tiny()
	base := Case{Kind: data.KindMNIST, Arch: nn.ArchMLP, Scheme: partition.Dirichlet(0.5), Algo: "fedavg"}
	async := base
	async.Runtime = core.RuntimeAsync
	async.Latency = "straggler:1,10,3"
	fedasync := async
	fedasync.Policy = "fedasync"
	keys := map[string]string{
		"sync":     base.key(p),
		"fedbuff":  async.key(p),
		"fedasync": fedasync.key(p),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Fatalf("cases %s and %s share cache key %q", prev, name, k)
		}
		seen[k] = name
	}
	// Profile-level runtime selection must shift every key too.
	pAsync := p
	pAsync.Runtime = core.RuntimeAsync
	pAsync.Latency = "exp:2"
	if base.key(p) == base.key(pAsync) {
		t.Fatal("profile runtime override did not change the cache key")
	}
}

// The key is printed from the struct, so every field of the selection —
// set on the case or on the profile — is part of it with no format string
// to keep in step.
func TestCaseKeyCoversEverySelectionField(t *testing.T) {
	p := Tiny()
	base := Case{Kind: data.KindMNIST, Arch: nn.ArchMLP, Scheme: partition.Dirichlet(0.5), Algo: "fedavg"}
	typ := reflect.TypeOf(base.Selection)
	for i := 0; i < typ.NumField(); i++ {
		set := func(sel *runtext.Selection) {
			switch f := reflect.ValueOf(sel).Elem().Field(i); f.Kind() {
			case reflect.String:
				f.SetString("x")
			case reflect.Int:
				f.SetInt(7)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("Selection.%s: unhandled kind %s", typ.Field(i).Name, f.Kind())
			}
		}
		onCase, onProfile := base, p
		set(&onCase.Selection)
		set(&onProfile.Selection)
		if onCase.key(p) == base.key(p) || base.key(onProfile) == base.key(p) {
			t.Errorf("Selection.%s does not reach the cache key", typ.Field(i).Name)
		}
		if onCase.key(p) != base.key(onProfile) {
			t.Errorf("Selection.%s keys differently on the case and on the profile", typ.Field(i).Name)
		}
	}
}

func TestDefaultParamsPaperValues(t *testing.T) {
	if MuFedTrip(nn.ArchMLP) != 1.0 || MuFedTrip(nn.ArchCNN) != 0.4 {
		t.Fatal("FedTrip mu defaults")
	}
	if AlphaFedDyn(data.KindMNIST) != 1.0 || AlphaFedDyn(data.KindCIFAR) != 0.1 {
		t.Fatal("FedDyn alpha defaults")
	}
	if DefaultParams("fedtrip", nn.ArchMLP, data.KindMNIST).Mu != 1.0 {
		t.Fatal("DefaultParams fedtrip")
	}
	if DefaultParams("feddyn", nn.ArchCNN, data.KindMNIST).Alpha != 1.0 {
		t.Fatal("DefaultParams feddyn")
	}
	if DefaultParams("fedavg", nn.ArchCNN, data.KindMNIST) != (algos.Params{}) {
		t.Fatal("fedavg should take zero params")
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
	bc := benchCase{label: "MLP/MNIST", arch: nn.ArchMLP, kind: data.KindMNIST}
	results, err := methodResults(p, bc, partition.Dirichlet(0.5), 0, 0, 0, 0, nil)
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
