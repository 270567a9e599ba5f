package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lossOf runs forward + softmax-CE on a model and returns the loss.
func lossOf(m *Model, x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, false)
	return SoftmaxCrossEntropy(logits, labels, nil)
}

// analyticGrad computes the full parameter gradient via backprop.
func analyticGrad(m *Model, x *tensor.Tensor, labels []int) []float64 {
	m.ZeroGrad()
	logits := m.Forward(x, false)
	d := tensor.New(logits.Shape()...)
	SoftmaxCrossEntropy(logits, labels, d)
	m.Backward(d, nil)
	g := make([]float64, m.NumParams())
	copy(g, m.Grads())
	return g
}

// checkGradients compares backprop gradients against central finite
// differences on a random subset of parameters. relTol is the maximum
// allowed relative error per coordinate (with an absolute floor for tiny
// gradients).
func checkGradients(t *testing.T, m *Model, x *tensor.Tensor, labels []int, probes int, relTol float64) {
	t.Helper()
	g := analyticGrad(m, x, labels)
	params := m.Params()
	rng := rand.New(rand.NewSource(99))
	const h = 1e-5
	for p := 0; p < probes; p++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		lp := lossOf(m, x, labels)
		params[i] = orig - h
		lm := lossOf(m, x, labels)
		params[i] = orig
		num := (lp - lm) / (2 * h)
		diff := math.Abs(num - g[i])
		scale := math.Max(1e-4, math.Max(math.Abs(num), math.Abs(g[i])))
		if diff/scale > relTol {
			t.Fatalf("param %d: analytic %.8g vs numeric %.8g (rel err %.3g)", i, g[i], num, diff/scale)
		}
	}
}

func randBatch(rng *rand.Rand, m *Model, n int) (*tensor.Tensor, []int) {
	x := tensor.New(prependBatch(n, m.InShape())...)
	x.RandNormal(rng, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m.OutDim())
	}
	return x, labels
}

func TestGradCheckDenseOnly(t *testing.T) {
	m, err := NewBuilder(7).Dense(5).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x, labels := randBatch(rng, m, 4)
	checkGradients(t, m, x, labels, 40, 1e-4)
}

func TestGradCheckMLP(t *testing.T) {
	m, err := NewBuilder(12).Dense(9).ReLU().Dense(4).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x, labels := randBatch(rng, m, 6)
	checkGradients(t, m, x, labels, 60, 1e-3)
}

// A ReLU as the first and as the last layer: the two positions where the
// activation and the gradient it would rectify belong to the caller.
func TestGradCheckReLUAtBothEnds(t *testing.T) {
	m, err := NewBuilder(12).ReLU().Dense(9).ReLU().Dense(4).ReLU().Build(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x, labels := randBatch(rng, m, 6)
	checkGradients(t, m, x, labels, 60, 1e-3)
}

func TestGradCheckConvNet(t *testing.T) {
	b := NewBuilder(2, 8, 8)
	b.Conv2D(3, 3, 1, 1).ReLU().MaxPool2D(2)
	b.Conv2D(4, 3, 1, 0).ReLU()
	b.Flatten().Dense(5)
	m, err := b.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x, labels := randBatch(rng, m, 3)
	checkGradients(t, m, x, labels, 80, 2e-3)
}

func TestGradCheckStridedPaddedConv(t *testing.T) {
	b := NewBuilder(1, 9, 9)
	b.Conv2D(2, 3, 2, 1).ReLU()
	b.Flatten().Dense(3)
	m, err := b.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x, labels := randBatch(rng, m, 2)
	checkGradients(t, m, x, labels, 50, 2e-3)
}

func TestGradCheckCNNArch(t *testing.T) {
	spec := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.34}
	m, err := spec.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	x, labels := randBatch(rng, m, 2)
	checkGradients(t, m, x, labels, 40, 5e-3)
}

// The extra feature gradient injected at the head boundary must flow
// through the body exactly like a real gradient: check against finite
// differences of an augmented loss L + <c, features>.
func TestGradCheckExtraFeatureGrad(t *testing.T) {
	m, err := NewBuilder(6).Dense(5).ReLU().Dense(3).Build(13)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	x, labels := randBatch(rng, m, 4)
	cvec := tensor.New(4, 5)
	cvec.RandNormal(rng, 1)

	augLoss := func() float64 {
		logits := m.Forward(x, false)
		l := SoftmaxCrossEntropy(logits, labels, nil)
		return l + tensor.Dot(cvec.Data, m.Features().Data)
	}
	m.ZeroGrad()
	logits := m.Forward(x, false)
	d := tensor.New(logits.Shape()...)
	SoftmaxCrossEntropy(logits, labels, d)
	m.Backward(d, cvec)
	g := make([]float64, m.NumParams())
	copy(g, m.Grads())

	params := m.Params()
	const h = 1e-5
	for p := 0; p < 60; p++ {
		i := rng.Intn(len(params))
		orig := params[i]
		params[i] = orig + h
		lp := augLoss()
		params[i] = orig - h
		lm := augLoss()
		params[i] = orig
		num := (lp - lm) / (2 * h)
		diff := math.Abs(num - g[i])
		scale := math.Max(1e-4, math.Max(math.Abs(num), math.Abs(g[i])))
		if diff/scale > 1e-3 {
			t.Fatalf("param %d: analytic %.8g vs numeric %.8g", i, g[i], num)
		}
	}
}
