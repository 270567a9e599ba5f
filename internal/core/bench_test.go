package core

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// aggregateInputs is Eq. 2 at the paper CNN's merge shape: 10 updates of
// |w| = 61,706, sample-count weights normalised to one.
func aggregateInputs() (dst, weights []float64, vecs [][]float64) {
	const n = 61706 // paper CNN |w|
	rng := rand.New(rand.NewSource(1))
	vecs = make([][]float64, 10)
	weights = make([]float64, len(vecs))
	var total float64
	for i := range vecs {
		vecs[i] = make([]float64, n)
		for j := range vecs[i] {
			vecs[i][j] = rng.NormFloat64()
		}
		weights[i] = float64(100 + i)
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	return make([]float64, n), weights, vecs
}

// BenchmarkAggregate measures Eq. 2 weighted averaging of 10 CNN-sized
// updates — the server's per-round vector work.
func BenchmarkAggregate(b *testing.B) {
	dst, weights, vecs := aggregateInputs()
	b.SetBytes(int64(len(dst) * len(vecs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.WeightedSumInto(dst, weights, vecs)
	}
}

// TestAggregateAllocFree pins the merge kernel at zero allocations at a
// size (617k multiply-adds) where a chunked parallel rewrite would be
// tempted to allocate per call.
func TestAggregateAllocFree(t *testing.T) {
	dst, weights, vecs := aggregateInputs()
	if n := testing.AllocsPerRun(10, func() { tensor.WeightedSumInto(dst, weights, vecs) }); n != 0 {
		t.Errorf("WeightedSumInto at 10 x %d: %v allocs per call, want 0", len(dst), n)
	}
}

// BenchmarkFedTripTransform measures the triplet gradient transform on a
// CNN-sized vector — the paper's 4|w| attaching operation.
func BenchmarkFedTripTransform(b *testing.B) {
	cfg := benchConfig(b)
	f := NewFedTrip(0.4)
	cfg.Algo = f
	s, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := s.Clients()[0]
	global := s.Global()
	c.SetRoundGlobal(global)
	copy(c.State(1), global)
	c.LastRound = 1 // xi = 1: the full 4|w| path
	w := c.Model().Params()
	g := make([]float64, len(w))
	b.SetBytes(int64(4 * len(w) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TransformGrad(c, 2, w, g)
	}
}

// BenchmarkLocalTrainRound measures one client's full local round (MLP,
// 80 samples, batch 10) under FedTrip, including the steady-state
// upload-buffer recycling the server performs after each merge.
func BenchmarkLocalTrainRound(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Algo = NewFedTrip(0.4)
	s, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := s.Clients()[0]
	global := s.Global()
	scratch := make([]Update, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch[0] = c.LocalTrain(i+1, global)
		recycleUpdates(scratch)
	}
}

func benchConfig(b *testing.B) Config {
	b.Helper()
	cfg, err := benchConfigErr()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}
