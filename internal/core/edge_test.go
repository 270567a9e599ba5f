package core

import (
	"testing"

	"repro/internal/tensor"
)

// Clients whose data size is not a multiple of the batch size must train
// on a final partial batch without losing samples or crashing.
func TestPartialBatches(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.BatchSize = 23 // 80 samples -> batches of 23,23,23,11
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	u := c.LocalTrain(1, s.Global())
	if !tensor.AllFinite(u.Params) {
		t.Fatal("partial-batch training produced non-finite params")
	}
	if u.TrainLoss <= 0 {
		t.Fatal("no loss recorded")
	}
}

// Batch size larger than the client's dataset: a single short batch.
func TestBatchLargerThanData(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.BatchSize = 10000
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := s.Clients()[0].LocalTrain(1, s.Global())
	if !tensor.AllFinite(u.Params) {
		t.Fatal("oversized batch training failed")
	}
}

// Multiple local epochs reshuffle every epoch and accumulate more steps.
func TestMultipleLocalEpochs(t *testing.T) {
	one := testConfig(t, NewFedTrip(0.4))
	s1, err := NewServer(one)
	if err != nil {
		t.Fatal(err)
	}
	u1 := s1.Clients()[0].LocalTrain(1, s1.Global())

	five := testConfig(t, NewFedTrip(0.4))
	five.LocalEpochs = 5
	s5, err := NewServer(five)
	if err != nil {
		t.Fatal(err)
	}
	u5 := s5.Clients()[0].LocalTrain(1, s5.Global())

	// Five epochs must move the model farther from the global start.
	d1 := tensor.DistSq(u1.Params, s1.Global())
	d5 := tensor.DistSq(u5.Params, s5.Global())
	if d5 <= d1 {
		t.Fatalf("5 epochs moved less (%v) than 1 epoch (%v)", d5, d1)
	}
	// And cost ~5x the FLOPs.
	f1 := s1.Clients()[0].Counter.Total()
	f5 := s5.Clients()[0].Counter.Total()
	if f5 < 4*f1 || f5 > 6*f1 {
		t.Fatalf("epoch FLOPs scaling off: %d vs %d", f1, f5)
	}
}

// K == N (full participation): every client trains every round.
func TestFullParticipation(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.ClientsPerRound = len(cfg.Parts)
	cfg.Rounds = 2
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatal("full participation run incomplete")
	}
}

// A single client population degenerates to centralized training but must
// still work.
func TestSingleClient(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Parts = cfg.Parts[:1]
	cfg.ClientsPerRound = 1
	cfg.Rounds = 3
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy <= 0 {
		t.Fatal("single-client run did not evaluate")
	}
}

// Transport hook is applied to both directions.
type doublingTransport struct{ downs, ups int }

func (d *doublingTransport) Down(clientID, round int, global []float64) []float64 {
	d.downs++
	return global
}
func (d *doublingTransport) Up(clientID, round int, params []float64) []float64 {
	d.ups++
	return params
}

func TestTransportInvoked(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	tr := &doublingTransport{}
	cfg.Transport = tr
	cfg.Rounds = 2
	// Sequential determinism for counting: single client per round.
	cfg.ClientsPerRound = 1
	if _, err := Start(RunSpec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if tr.downs != 2 || tr.ups != 2 {
		t.Fatalf("transport calls down=%d up=%d want 2/2", tr.downs, tr.ups)
	}
}
