package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
)

// Tiny-profile integration runs for the cheaper round-based experiments.
// These execute real federated training (seconds each) and are skipped in
// -short mode.

func runTiny(t *testing.T, id string) []*Table {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tabs, err := e.Run(Tiny(), nil)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tabs) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return tabs
}

func TestTheoryXiValidatesClosedForm(t *testing.T) {
	tabs := runTiny(t, "theory-xi")
	if len(tabs[0].Rows) != 4 {
		t.Fatalf("rows %d", len(tabs[0].Rows))
	}
	for _, row := range tabs[0].Rows {
		relErr := strings.TrimSuffix(row[4], "%")
		v, err := strconv.ParseFloat(relErr, 64)
		if err != nil {
			t.Fatalf("bad rel err cell %q", row[4])
		}
		if v > 5 {
			t.Fatalf("E[xi] deviates %s%% from the closed form (row %v)", relErr, row)
		}
	}
}

func TestFig3MechanismTiny(t *testing.T) {
	tabs := runTiny(t, "fig3")
	tab := tabs[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("fig3 should compare 3 methods, got %d", len(tab.Rows))
	}
	// Parse the global-local divergence column; the regularized methods
	// must not exceed FedAvg's divergence (paper's core mechanism).
	div := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad divergence cell %q", row[1])
		}
		div[row[0]] = v
	}
	if div["fedprox"] > div["fedavg"]*1.05 {
		t.Errorf("fedprox divergence %.4f should be <= fedavg %.4f", div["fedprox"], div["fedavg"])
	}
	if div["fedtrip"] > div["fedavg"]*1.1 {
		t.Errorf("fedtrip divergence %.4f should not exceed fedavg %.4f by >10%%", div["fedtrip"], div["fedavg"])
	}
}

func TestAblationXiTiny(t *testing.T) {
	tabs := runTiny(t, "abl-xi")
	if len(tabs[0].Rows) != 4 {
		t.Fatalf("abl-xi should list 4 variants, got %d", len(tabs[0].Rows))
	}
}

func TestTheoryRhoTiny(t *testing.T) {
	tabs := runTiny(t, "theory-rho")
	tab := tabs[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("theory-rho rows %d", len(tab.Rows))
	}
	// The final row uses the paper's mu = 6LB^2 choice, which must
	// guarantee rho > 0.
	last := tab.Rows[len(tab.Rows)-1]
	if last[2] != "yes" {
		t.Fatalf("mu=6LB^2 must guarantee decrease, got row %v", last)
	}
}

func TestRhoFormula(t *testing.T) {
	// With gamma=0 the paper's example: mu = 6LB^2, rho must be positive
	// for any positive L and B >= 1.
	for _, lb := range [][2]float64{{1, 1}, {5, 2}, {0.3, 4}, {10, 1.5}} {
		l, b := lb[0], lb[1]
		mu := 6 * l * b * b
		if rho := rhoOf(mu, l, b); rho <= 0 {
			t.Fatalf("rho(6LB^2)=%v for L=%v B=%v", rho, l, b)
		}
	}
	// Tiny mu violates the condition when LB is large.
	if rho := rhoOf(0.01, 10, 3); rho >= 0 {
		t.Fatalf("rho should be negative for small mu, got %v", rho)
	}
}

// The time-to-accuracy table: every method runs on the barrier runtime
// and on the buffered runtime under the FedBuff and FedAsync policies,
// priced by the same straggler latency model, all through core.Start.
func TestTTATiny(t *testing.T) {
	tabs := runTiny(t, "tta")
	tab := tabs[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("tta should have 3 methods x 3 variants = 9 rows, got %d", len(tab.Rows))
	}
	variants := map[string]int{}
	for _, row := range tab.Rows {
		variants[row[1]]++
		// The simulated-time column must be a positive duration: the
		// straggler latency model prices every variant.
		v, err := strconv.ParseFloat(strings.TrimPrefix(row[5], ">"), 64)
		if err != nil {
			t.Fatalf("bad sim time cell %q", row[5])
		}
		if v <= 0 {
			t.Fatalf("variant %q reports no simulated time (row %v)", row[1], row)
		}
	}
	for _, want := range []string{"sync barrier", "async fedbuff", "async fedasync"} {
		if variants[want] != 3 {
			t.Fatalf("variant %q has %d rows, want 3 (got %v)", want, variants[want], variants)
		}
	}
	// The policy sweep table: FedAsync alpha vs FedBuff K, plus the
	// importance-weighted buffer and a server-LR schedule (the table
	// coverage for the importance policy and -server-lr).
	if len(tabs) != 2 {
		t.Fatalf("tta should emit the comparison and the sweep, got %d tables", len(tabs))
	}
	sweep := tabs[1]
	if len(sweep.Rows) != 8 {
		t.Fatalf("tta sweep should have 8 policy rows, got %d", len(sweep.Rows))
	}
	labels := map[string]bool{}
	for _, row := range sweep.Rows {
		labels[row[0]] = true
		if v, err := strconv.ParseFloat(strings.TrimPrefix(row[2], ">"), 64); err != nil || v <= 0 {
			t.Fatalf("sweep row %v has no positive sim time", row)
		}
	}
	for _, want := range []string{"fedasync a=0.6", "importance b=0.1 K=2", "fedbuff K=2, lr=invsqrt"} {
		if !labels[want] {
			t.Fatalf("sweep missing row %q (got %v)", want, labels)
		}
	}
}

// The hetero table: three methods under three FLOP-coupled device
// fleets (uniform, tiered with adaptive steps, lognormal with Markov
// churn and a max-staleness cutoff), update-budget-equalized on the
// buffered async runtime.
func TestHeteroTiny(t *testing.T) {
	tabs := runTiny(t, "hetero")
	tab := tabs[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("hetero should have 3 methods x 3 fleets = 9 rows, got %d", len(tab.Rows))
	}
	fleets := map[string]int{}
	for _, row := range tab.Rows {
		fleets[row[1]]++
		// Every fleet is priced in flop-derived simulated time.
		v, err := strconv.ParseFloat(strings.TrimPrefix(row[4], ">"), 64)
		if err != nil {
			t.Fatalf("bad sim time cell %q", row[4])
		}
		if v <= 0 {
			t.Fatalf("fleet %q reports no simulated time (row %v)", row[1], row)
		}
	}
	for _, want := range []string{"uniform fleet", "tiered devices", "lognormal + churn"} {
		if fleets[want] != 3 {
			t.Fatalf("fleet %q has %d rows, want 3 (got %v)", want, fleets[want], fleets)
		}
	}
}

// The comm-tta table: one transport per row on a bandwidth-tiered
// churning fleet, with accuracy, wire bytes, and sim-time columns. The
// sparsifying rows must move fewer bytes than dense float32, and the
// bandwidth pricing must show up as positive simulated time everywhere.
func TestCommTTATiny(t *testing.T) {
	tabs := runTiny(t, "comm-tta")
	tab := tabs[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("comm-tta should have 5 transport rows, got %d", len(tab.Rows))
	}
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimPrefix(row[col], ">"), 64)
		if err != nil {
			t.Fatalf("bad cell %q in row %v", row[col], row)
		}
		return v
	}
	// The wire column is cumulative at the (per-row) target round, so
	// compare per-aggregation traffic, which is rate-comparable across
	// rows that needed different aggregation counts.
	mbPerAgg := map[string]float64{}
	for _, row := range tab.Rows {
		mbPerAgg[row[0]] = cell(row, 2) / cell(row, 1)
		if simTime := cell(row, 3); simTime <= 0 {
			t.Fatalf("transport %q reports no simulated time (row %v)", row[0], row)
		}
		if acc := cell(row, 5); acc <= 0 {
			t.Fatalf("transport %q reports no accuracy (row %v)", row[0], row)
		}
	}
	for _, compressed := range []string{"q8", "q8+ef", "topk:0.01+ef", "randk:0.05"} {
		if mbPerAgg[compressed] >= mbPerAgg["f32"] {
			t.Fatalf("%s moved %.4f MB/agg, not less than dense f32's %.4f MB/agg", compressed, mbPerAgg[compressed], mbPerAgg["f32"])
		}
	}
}

// TestExtQuantTiny: the quantized rows really ship through the q<bits>
// transport — measured upload bytes shrink with the width. (While the
// run assembler replaced a Config's transport with the profile's empty
// selection, both rows ran unquantized and reported 0.00 MB.)
func TestExtQuantTiny(t *testing.T) {
	tab := runTiny(t, "ext-quant")[0]
	var mb []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad upload cell in row %v", row)
		}
		mb = append(mb, v)
	}
	if len(mb) != 3 || !(mb[0] > mb[1] && mb[1] > mb[2] && mb[2] > 0) {
		t.Fatalf("upload MB float32/8-bit/4-bit = %v, want strictly decreasing and non-zero", mb)
	}
}

// A profile-level runtime override makes an ordinary experiment run
// asynchronously: the cached results carry the async-only metrics.
func TestProfileRuntimeOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ResetCaches()
	p := Tiny()
	p.Runtime = core.RuntimeAsync
	p.Latency = "straggler:1,10,3"
	res, err := p.Run(p.mlpMNIST("fedtrip", runtext.Selection{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SimTimeByRound) != res.Rounds {
		t.Fatalf("async run has %d sim-time entries for %d rounds", len(res.SimTimeByRound), res.Rounds)
	}
	// A server-hook method (SlowMo overrides aggregation) must fall back
	// to the barrier runtime instead of erroring.
	res2, err := p.Run(p.mlpMNIST("slowmo", runtext.Selection{}), nil)
	if err != nil {
		t.Fatalf("server-hook method under async profile: %v", err)
	}
	if len(res2.SimTimeByRound) != res2.Rounds {
		t.Fatal("barrier fallback did not price rounds in simulated time")
	}
}

// A table cell is its command line: Profile.Run and core.Start over
// runtext.FromLine of the cell's line train bit-identical accuracy series —
// for a second trial, an ablation written as method text, and a
// server-hook method under an async profile, whose line says barrier.
func TestCellIsItsCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ResetCaches()
	p := Tiny()
	async := p
	async.Runtime, async.Latency = core.RuntimeAsync, "straggler:1,10,3"
	trial1 := p.mlpMNIST("fedprox", runtext.Selection{})
	trial1.Seed++
	slowmo := async.mlpMNIST("slowmo", runtext.Selection{})
	if slowmo.Runtime != core.RuntimeBarrier {
		t.Fatalf("slowmo under an async profile runs on %q, want barrier", slowmo.Runtime)
	}
	for _, tc := range []struct {
		p Profile
		c runtext.Command
	}{
		{p, trial1},
		{p, p.cell(data.KindMNIST, nn.ArchMLP, partition.Dirichlet(0.5), "fedtrip:0.4,1,0,1,1", runtext.Selection{})},
		{async, slowmo},
	} {
		line := tc.c.Line()
		got, err := tc.p.Run(tc.c, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := runtext.FromLine(line)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Accuracy) != fmt.Sprint(want.Accuracy) || got.Digest() != want.Digest() {
			t.Errorf("fedtrip %s:\n cell %v\n line %v", line, got.Accuracy, want.Accuracy)
		}
	}
}

// TestFig2Tiny pins the Fig. 2 rows of the tiny profile, and runs the
// harness under the async runtime too — in -short mode as well, so the
// race detector watches it read client 0's model while clients train.
func TestFig2Tiny(t *testing.T) {
	e, _ := Get("fig2")
	cases := []struct {
		name    string
		runtime core.Runtime
		latency string
		short   bool
		rows    [][]string // nil: structure only
	}{
		// Client 0 is first selected after round 3, so the earlier local
		// snapshot falls back to the final global model.
		{"sync", "", "", false, [][]string{
			{"global @ round 6", "-0.0238", "-0.1643"},
			{"client0 local @ round 6", "-0.0365", "-0.1514"},
			{"client0 local @ round 3", "-0.0238", "-0.1643"},
		}},
		{"async", core.RuntimeAsync, "straggler:1,10,3", true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("short mode")
			}
			p := Tiny()
			p.Runtime, p.Latency = tc.runtime, tc.latency
			tabs, err := e.Run(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows := tabs[0].Rows
			if len(rows) != 3 {
				t.Fatalf("fig2 should list 3 snapshots, got %d", len(rows))
			}
			for _, row := range rows {
				if _, err := strconv.ParseFloat(row[1], 64); err != nil {
					t.Fatalf("bad silhouette cell %q", row[1])
				}
			}
			if tc.rows != nil && fmt.Sprint(rows) != fmt.Sprint(tc.rows) {
				t.Errorf("fig2 rows\n got %q\nwant %q", rows, tc.rows)
			}
		})
	}
}
