package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// heldBytes sums the capacities of the buffers m's layers hold, each
// backing array once (an in-place ReLU's output is the array of the layer
// before it), leaving out the caller's own tensors. Pooled conv and GEMM
// scratch is not held by a layer and is not counted.
func heldBytes(m *Model, caller ...*tensor.Tensor) int64 {
	seen := map[*float64]bool{}
	for _, t := range caller {
		seen[&t.Data[:1][0]] = true
	}
	var n int64
	f64 := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			if t == nil || cap(t.Data) == 0 || seen[&t.Data[:1][0]] {
				continue
			}
			seen[&t.Data[:1][0]] = true
			n += 8 * int64(cap(t.Data))
		}
	}
	for _, l := range m.layers {
		switch l := l.(type) {
		case *denseLayer:
			f64(l.y, l.dx)
		case *convLayer:
			f64(l.y, l.dx)
		case *maxPoolLayer:
			f64(l.y, l.dx)
			n += 4 * int64(cap(l.argmax))
		case *reluLayer:
			f64(l.y, l.dx)
		case *dropoutLayer:
			f64(l.y, l.dx)
			n += int64(cap(l.keep))
		}
	}
	return n
}

// TestHeldActivationBytes pins, exactly, the bytes a model's layers hold
// after one training step and after one evaluation forward at the batch
// the programs run it at: the paper's CNN at 50, the MLP at 6 and a
// quarter-width AlexNet at 8. Before layers were placed — when every ReLU
// kept its own y, dx and []bool mask and the first layer computed the
// input gradient — the same steps held
//
//	cnn@50      train 12,631,800   eval 6,481,400
//	mlp@6       train     57,912   eval    10,680
//	alexnet@8   train 13,009,792   eval 6,640,512
//
// and before conv, dense and max-pool layers wrote their input gradient
// into their input's storage, training held 6,786,400 (cnn@50) and
// 6,959,744 (alexnet@8). A change that means to move these edits the
// table.
func TestHeldActivationBytes(t *testing.T) {
	for _, c := range []struct {
		spec        ModelSpec
		batch       int
		train, eval int64
	}{
		{ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10}, 50, 3_634_400, 3_552_800},
		{ModelSpec{Arch: ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}, 6, 10_080, 5_280},
		{ModelSpec{Arch: ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.25}, 8, 4_403_840, 3_541_632},
	} {
		rng := rand.New(rand.NewSource(1))
		m, err := c.spec.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		x, labels := randBatch(rng, m, c.batch)
		logits := m.Forward(x, true)
		d := tensor.New(logits.Shape()...)
		SoftmaxCrossEntropy(logits, labels, d)
		m.Backward(d, nil)
		if got := heldBytes(m, x, d); got != c.train {
			t.Errorf("%s@%d: a training step holds %d B, committed %d", c.spec.Arch, c.batch, got, c.train)
		}
		e, err := c.spec.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		e.Forward(x, false)
		if got := heldBytes(e, x); got != c.eval {
			t.Errorf("%s@%d: an evaluation forward holds %d B, committed %d", c.spec.Arch, c.batch, got, c.eval)
		}
	}
}

// TestWideBatchMatchesSerial: a batch of 260 samples, wider than the
// 256 at which conv and pooling once split a batch across goroutines,
// gives the same logits and the same parameter gradient bit for bit at
// GOMAXPROCS 2, 3 and 4 as at 1. A shard's kernels run on its own
// goroutine, so nothing in a training step may follow the worker count.
func TestWideBatchMatchesSerial(t *testing.T) {
	spec := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25}
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(260, 1, 28, 28)
	x.RandNormal(rng, 1)
	labels := make([]int, 260)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	step := func(procs int) (logits, grads []float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := spec.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(x, true)
		logits = append([]float64(nil), out.Data...)
		d := tensor.New(out.Shape()...)
		SoftmaxCrossEntropy(out, labels, d)
		m.Backward(d, nil)
		return logits, append([]float64(nil), m.Grads()...)
	}
	serialLogits, serialGrads := step(1)
	for _, procs := range []int{2, 3, 4} {
		logits, grads := step(procs)
		for i, v := range logits {
			if math.Float64bits(v) != math.Float64bits(serialLogits[i]) {
				t.Fatalf("logit %d: %v at GOMAXPROCS %d, %v at 1", i, v, procs, serialLogits[i])
			}
		}
		for i, v := range grads {
			if math.Float64bits(v) != math.Float64bits(serialGrads[i]) {
				t.Fatalf("gradient %d: %v at GOMAXPROCS %d, %v at 1", i, v, procs, serialGrads[i])
			}
		}
	}
}
