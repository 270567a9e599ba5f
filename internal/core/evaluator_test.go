package core

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// evaluateAccuracy200 is EvaluateAccuracy as it stood when every
// evaluation forwarded 200 rows at a time, kept verbatim as the oracle the
// runtime's evaluator must match bit for bit.
func evaluateAccuracy200(model *nn.Model, params []float64, ds evalDataset, batch int) float64 {
	model.SetParams(params)
	n := ds.Len()
	if n == 0 {
		return 0
	}
	if batch > n {
		batch = n
	}
	correct := 0.0
	idx := make([]int, 0, batch)
	x := tensor.New(append([]int{batch}, model.InShape()...)...)
	labels := make([]int, batch)
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx = idx[:0]
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		if x.Dim(0) != len(idx) {
			x.SetDim0(len(idx))
		}
		ds.FillBatch(x, labels[:len(idx)], idx)
		logits := model.Forward(x, false)
		correct += nn.Accuracy(logits, labels[:len(idx)]) * float64(len(idx))
	}
	return correct / float64(n)
}

// evalOracleSizes straddle the 200-sample accounting window: below it,
// at it, one window plus a tail, and several windows plus a short tail.
var evalOracleSizes = []int{1, 31, 33, 50, 99, 200, 230, 500, 1010}

// evalOracleModels are the three architectures at a quarter width and the
// paper's CNN, each on the corpus it is run on, evaluated at training
// batch sizes below, at and above the window. AlexNet forwards ~30 MFLOP a
// sample, so it covers the sizes inside one window; the window arithmetic
// is the same for every model.
var evalOracleModels = []struct {
	spec    nn.ModelSpec
	kind    data.Kind
	sizes   []int
	batches []int
}{
	{nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25}, data.KindMNIST, evalOracleSizes, []int{1, 6, 7, 50, 200, 256}},
	{nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25}, data.KindMNIST, evalOracleSizes, []int{1, 7, 50, 64, 256}},
	{nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 1}, data.KindMNIST, evalOracleSizes, []int{50}},
	{nn.ModelSpec{Arch: nn.ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.25}, data.KindCIFAR, evalOracleSizes[:4], []int{8}},
}

// predict returns m's class for every sample of ds, argmax ties to the
// first class as nn.Correct breaks them.
func predict(m *nn.Model, ds *data.Dataset) []int {
	pred := make([]int, ds.Len())
	for lo := 0; lo < ds.Len(); lo += 200 {
		hi := min(lo+200, ds.Len())
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x := tensor.New(append([]int{len(idx)}, m.InShape()...)...)
		ds.FillBatch(x, make([]int, len(idx)), idx)
		logits := m.Forward(x, false)
		c := logits.Dim(1)
		for i := range idx {
			row := logits.Data[i*c : (i+1)*c]
			for j := range row {
				if row[j] > row[pred[lo+i]] {
					pred[lo+i] = j
				}
			}
		}
	}
	return pred
}

// relabeled is the first n samples of ds, labelled so that in each of the
// oracle's 200-sample windows, of w samples, the model is right exactly c
// times, c the largest count with c/w·w != c where w has one: accumulating
// right answers, or fractions over other windows, gives other bits.
func relabeled(ds *data.Dataset, pred []int, n int) *data.Dataset {
	p := *ds
	p.X, p.Y = ds.X[:n*ds.SampleSize()], make([]int, n)
	for start := 0; start < n; start += 200 {
		end := min(start+200, n)
		w := float64(end - start)
		c := (end - start) / 2
		for k := end - start; k > 0; k-- {
			if float64(k)/w*w != float64(k) {
				c = k
				break
			}
		}
		for i := start; i < end; i++ {
			p.Y[i] = pred[i]
			if i-start >= c {
				p.Y[i] = (pred[i] + 1) % ds.Classes
			}
		}
	}
	return &p
}

// The off-loop evaluator and Server.EvaluateGlobal share the server's one
// tester. An OnRound hook calls EvaluateGlobal right after the round's
// snapshot is queued for the evaluator, on the same global model, so the
// two must agree bit for bit — and under -race the two users of the
// tester must never overlap.
func TestEvaluateGlobalFromOnRoundSharesTester(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 4
	var hooked []float64
	cfg.OnRound = func(round int, s *Server) {
		hooked = append(hooked, s.EvaluateGlobal())
	}
	res, err := Start(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range hooked {
		if math.Float64bits(a) != math.Float64bits(res.Accuracy[i]) {
			t.Fatalf("round %d: EvaluateGlobal in OnRound gave %v, the evaluator %v", i+1, a, res.Accuracy[i])
		}
	}
	if len(hooked) != cfg.Rounds {
		t.Fatalf("OnRound ran %d times, want %d", len(hooked), cfg.Rounds)
	}
}

// TestEvaluateAccuracyMatchesWideOracle: the runtime's evaluation of a
// model, in chunks of the training batch, is Float64bits-equal to the
// 200-row oracle for every architecture, test-set size and batch size, on
// labels that make the window accounting matter.
func TestEvaluateAccuracyMatchesWideOracle(t *testing.T) {
	for _, mc := range evalOracleModels {
		_, test, err := data.Generate(data.Spec{Kind: mc.kind, Train: 1, Test: mc.sizes[len(mc.sizes)-1], Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := mc.spec.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		params := oracle.ParamsCopy()
		pred := predict(oracle, test)
		for _, n := range mc.sizes {
			ds := relabeled(test, pred, n)
			want := evaluateAccuracy200(oracle, params, ds, 200)
			for _, b := range mc.batches {
				tr, err := newTester(&Config{Model: mc.spec, Test: ds, BatchSize: b, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if got := tr.accuracy(params); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s@%v, %d samples, batch %d: accuracy %v, oracle %v",
						mc.spec.Arch, mc.spec.Scale, n, b, got, want)
				}
			}
		}
	}
}
