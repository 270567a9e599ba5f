package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

func TestCollectorDistances(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	global := []float64{0, 0}
	// Round 1: client 0 uploads (3,4): global dist 5, no history.
	hook(1, global, []core.Update{{ClientID: 0, Params: []float64{3, 4}, NumSamples: 1, TrainLoss: 2}})
	// Round 2: client 0 uploads (3,0): dist to global 3, to prev (3,4) is 4.
	hook(2, global, []core.Update{{ClientID: 0, Params: []float64{3, 0}, NumSamples: 1, TrainLoss: 1}})
	rows := c.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].GlobalDist != 5 || !math.IsNaN(rows[0].HistDist) {
		t.Fatalf("row0 %+v", rows[0])
	}
	if rows[1].GlobalDist != 3 || rows[1].HistDist != 4 {
		t.Fatalf("row1 %+v", rows[1])
	}
}

func TestCollectorCopiesParams(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	params := []float64{1, 1}
	hook(1, []float64{0, 0}, []core.Update{{ClientID: 0, Params: params}})
	params[0] = 99 // caller reuses the buffer; collector must have copied
	hook(2, []float64{0, 0}, []core.Update{{ClientID: 0, Params: []float64{1, 1}}})
	rows := c.Rows()
	if rows[1].HistDist != 0 {
		t.Fatalf("hist dist %v: collector aliased caller memory", rows[1].HistDist)
	}
}

func TestSummaryAggregation(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	global := []float64{0}
	hook(1, global, []core.Update{
		{ClientID: 0, Params: []float64{1}, TrainLoss: 1},
		{ClientID: 1, Params: []float64{3}, TrainLoss: 3},
	})
	sum := c.Summary()
	if len(sum) != 1 {
		t.Fatalf("%d summaries", len(sum))
	}
	s := sum[0]
	if s.Clients != 2 || s.MeanLoss != 2 || s.MeanGlobalDist != 2 {
		t.Fatalf("summary %+v", s)
	}
	if !math.IsNaN(s.MeanHistDist) {
		t.Fatal("round-1 hist dist should be NaN")
	}
}

func TestTailMeans(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	global := []float64{0}
	hook(1, global, []core.Update{{ClientID: 0, Params: []float64{2}}})
	hook(2, global, []core.Update{{ClientID: 0, Params: []float64{4}}})
	hook(3, global, []core.Update{{ClientID: 0, Params: []float64{8}}})
	// Tail 2: rounds 2,3 -> global dists 4,8 mean 6; hist dists 2,4 mean 3.
	g, h := c.TailMeans(2)
	if g != 6 || h != 3 {
		t.Fatalf("tail means g=%v h=%v", g, h)
	}
	// Larger k than rounds: uses everything.
	g, _ = c.TailMeans(100)
	if g != (2.0+4+8)/3 {
		t.Fatalf("full tail g=%v", g)
	}
	empty := NewCollector()
	if g, _ := empty.TailMeans(3); !math.IsNaN(g) {
		t.Fatal("empty collector should give NaN")
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	hook(1, []float64{0}, []core.Update{{ClientID: 2, Params: []float64{1}, TrainLoss: 0.5}})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "round,client,train_loss,global_dist,hist_dist") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, "1,2,0.5,1,") {
		t.Fatalf("csv row missing: %q", out)
	}
}

// End-to-end: the collector plugged into a real run records one row per
// selected client per round.
func TestCollectorEndToEnd(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 50, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	cfg := core.Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          4,
		ClientsPerRound: 3,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            core.NewFedTrip(0.4),
		Seed:            3,
		OnUpdates:       col.Hook(),
	}
	if _, err := core.Start(core.RunSpec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) != 4*3 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.GlobalDist <= 0 {
			t.Fatalf("non-positive global dist: %+v", r)
		}
	}
	if len(col.Summary()) != 4 {
		t.Fatal("summary rounds")
	}
}
