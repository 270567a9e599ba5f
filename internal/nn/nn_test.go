package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/flops"
	"repro/internal/prng"
	"repro/internal/tensor"
)

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Dense(3).Build(1); err == nil {
		t.Fatal("empty input shape accepted")
	}
	if _, err := NewBuilder(-2).Dense(3).Build(1); err == nil {
		t.Fatal("negative input dim accepted")
	}
	if _, err := NewBuilder(4).Build(1); err == nil {
		t.Fatal("layerless model accepted")
	}
	if _, err := NewBuilder(4).Dense(0).Build(1); err == nil {
		t.Fatal("zero-width dense accepted")
	}
	if _, err := NewBuilder(4).Dropout(1.5).Build(1); err == nil {
		t.Fatal("bad dropout p accepted")
	}
	if _, err := NewBuilder(2, 4, 4).Dense(3).Build(1); err == nil {
		t.Fatal("dense on CHW input accepted without Flatten")
	}
	if _, err := NewBuilder(8).Conv2D(2, 3, 1, 0).Flatten().Dense(2).Build(1); err == nil {
		t.Fatal("conv on flat input accepted")
	}
	if _, err := NewBuilder(1, 7, 7).MaxPool2D(2).Flatten().Dense(2).Build(1); err == nil {
		t.Fatal("non-dividing pool accepted")
	}
	if _, err := NewBuilder(1, 8, 8).Conv2D(2, 3, 1, 0).Build(1); err == nil {
		t.Fatal("non-flat output accepted")
	}
}

func TestModelDeterministicInit(t *testing.T) {
	spec := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 5}
	m1, err := spec.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := spec.Build(42)
	if tensor.MaxAbsDiff(m1.Params(), m2.Params()) != 0 {
		t.Fatal("same seed gave different init")
	}
	m3, _ := spec.Build(43)
	if tensor.MaxAbsDiff(m1.Params(), m3.Params()) == 0 {
		t.Fatal("different seeds gave identical init")
	}
}

func TestSetParamsRoundTrip(t *testing.T) {
	m, err := NewBuilder(4).Dense(3).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	v := m.ParamsCopy()
	for i := range v {
		v[i] = float64(i)
	}
	m.SetParams(v)
	if tensor.MaxAbsDiff(m.Params(), v) != 0 {
		t.Fatal("SetParams did not copy")
	}
	v[0] = 999
	if m.Params()[0] == 999 {
		t.Fatal("SetParams aliased caller slice")
	}
}

func TestZeroGradAccumulation(t *testing.T) {
	m, err := NewBuilder(3).Dense(2).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x, labels := randBatch(rng, m, 2)
	g1 := analyticGrad(m, x, labels)
	// Backward twice without ZeroGrad must double the gradient.
	m.ZeroGrad()
	for k := 0; k < 2; k++ {
		logits := m.Forward(x, false)
		d := tensor.New(logits.Shape()...)
		SoftmaxCrossEntropy(logits, labels, d)
		m.Backward(d, nil)
	}
	for i := range g1 {
		if math.Abs(m.Grads()[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("grad accumulation wrong at %d: %v vs %v", i, m.Grads()[i], 2*g1[i])
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits: loss = ln(C), gradient rows sum to 0.
	logits := tensor.New(2, 4)
	d := tensor.New(2, 4)
	loss := SoftmaxCrossEntropy(logits, []int{0, 3}, d)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss %v != ln4", loss)
	}
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += d.At(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v", i, sum)
		}
	}
	// Gradient at true label must be negative, others positive.
	if d.At(0, 0) >= 0 || d.At(0, 1) <= 0 {
		t.Fatal("gradient signs wrong")
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 0, -1000}, 1, 3)
	loss := SoftmaxCrossEntropy(logits, []int{0}, nil)
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 1e-6 {
		t.Fatalf("unstable loss %v", loss)
	}
}

func TestSoftmaxPanics(t *testing.T) {
	defer expectPanic(t)
	SoftmaxCrossEntropy(tensor.New(2, 3), []int{0}, nil)
}

func TestSoftmaxLabelRangePanics(t *testing.T) {
	defer expectPanic(t)
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{3}, nil)
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 2, 0, // argmax 1
		5, 0, 0, // argmax 0
		0, 0, 9, // argmax 2
		7, 0, 0, // argmax 0
	}, 4, 3)
	got := Accuracy(logits, []int{1, 0, 2, 1})
	if got != 0.75 {
		t.Fatalf("accuracy %v", got)
	}
}

func TestDropoutTrainEval(t *testing.T) {
	m, err := NewBuilder(1000).Dropout(0.5).Dense(1).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 1000)
	x.Fill(1)
	// Eval mode: dropout is identity, repeated calls deterministic.
	a := m.Forward(x, false).Clone()
	b := m.Forward(x, false)
	if tensor.MaxAbsDiff(a.Data, b.Data) != 0 {
		t.Fatal("eval-mode forward not deterministic")
	}
	// Train mode: some activations change (dropout fired).
	c := m.Forward(x, true)
	if tensor.MaxAbsDiff(a.Data, c.Data) == 0 {
		t.Fatal("train-mode dropout had no effect on 1000 units (p=0.5)")
	}
}

// A mask follows the stream SetMaskRNG installs, not the model instance:
// two models built from different seeds, loaded with the same parameters
// and pointed at equal streams, drop the same units; an evaluation-mode
// forward draws nothing from the stream.
func TestSetMaskRNGDecidesTheMask(t *testing.T) {
	build := func(seed int64) *Model {
		m, err := NewBuilder(1000).Dropout(0.5).Dense(3).Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(1), build(2)
	b.SetParams(a.Params())
	x := tensor.New(2, 1000)
	x.Fill(1)
	if tensor.MaxAbsDiff(a.Forward(x, true).Data, b.Forward(x, true).Data) == 0 {
		t.Fatal("models built from different seeds drew the same mask before SetMaskRNG")
	}
	ra, rb := prng.New(9), prng.New(9)
	a.SetMaskRNG(ra)
	b.SetMaskRNG(rb)
	if tensor.MaxAbsDiff(a.Forward(x, true).Data, b.Forward(x, true).Data) != 0 {
		t.Fatal("equal mask streams gave different train-mode outputs")
	}
	if ra.State() == prng.New(9).State() {
		t.Fatal("a train-mode forward did not draw from the installed stream")
	}
	before := ra.State()
	a.Forward(x, false)
	if ra.State() != before {
		t.Fatal("an evaluation-mode forward drew from the mask stream")
	}
}

func TestDropoutMaskStatistics(t *testing.T) {
	b := NewBuilder(10000)
	b.Dropout(0.3)
	b.Dense(1)
	m, err := b.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 10000)
	x.Fill(1)
	out := m.layers[0].Forward(x, true)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-1/0.7) > 1e-12 {
			t.Fatalf("survivor scaled wrong: %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("dropped fraction %v far from 0.3", frac)
	}
}

func TestFeaturesShapeAndCache(t *testing.T) {
	spec := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 4, Width: 4, Classes: 3}
	m, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 16)
	m.Forward(x, false)
	f := m.Features()
	if f.Dim(0) != 5 || f.Dim(1) != m.FeatureDim() {
		t.Fatalf("features shape %v, want [5 %d]", f.Shape(), m.FeatureDim())
	}
	if m.FeatureDim() != 100 {
		t.Fatalf("MLP feature dim %d != 100", m.FeatureDim())
	}
}

func TestFeaturesBeforeForwardPanics(t *testing.T) {
	m, _ := NewBuilder(4).Dense(2).Build(1)
	defer expectPanic(t)
	m.Features()
}

func TestFLOPCounterMetersForwardBackward(t *testing.T) {
	m, err := NewBuilder(10).Dense(4).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var c flops.Counter
	m.SetCounter(&c)
	x := tensor.New(3, 10)
	logits := m.Forward(x, false)
	perSample := m.Cost().Forward
	if got := c.Total(); got != int64(3*perSample) {
		t.Fatalf("forward metered %d want %d", got, int64(3*perSample))
	}
	d := tensor.New(logits.Shape()...)
	SoftmaxCrossEntropy(logits, []int{0, 1, 2}, d)
	m.Backward(d, nil)
	want := int64(3*perSample) + int64(3*2*perSample)
	if got := c.Total(); got != want {
		t.Fatalf("backward metered %d want %d", got, want)
	}
}

func TestModelSpecTableIII(t *testing.T) {
	// The paper's Table III sizes (within tolerance; see DESIGN.md for the
	// params-column typo discussion): MLP ~0.08M params, CNN ~0.06M params,
	// AlexNet ~2-3M params.
	mlp, err := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := mlp.NumParams(); n != 784*100+100+100*10+10 {
		t.Fatalf("MLP params %d", n)
	}
	cnn, err := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := cnn.NumParams(); n < 55000 || n > 70000 {
		t.Fatalf("CNN params %d outside LeNet5 range", n)
	}
	alex, err := ModelSpec{Arch: ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := alex.NumParams(); n < 2_000_000 || n > 3_500_000 {
		t.Fatalf("AlexNet params %d outside paper range", n)
	}
	if alex.Cost().Forward < 50e6 {
		t.Fatalf("AlexNet forward MFLOPs %v implausibly low", alex.Cost().Forward/1e6)
	}
}

func TestModelSpecValidate(t *testing.T) {
	s := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 10}
	if err := s.Validate(); err != nil || s.Scale != 1 {
		t.Fatalf("default scale not applied: %v %v", err, s.Scale)
	}
	bad := ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 10, Scale: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	if _, err := (ModelSpec{Arch: "nope", Channels: 1, Height: 8, Width: 8, Classes: 10}).Build(1); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if _, err := (ModelSpec{Arch: ArchMLP, Channels: 1, Height: 8, Width: 8, Classes: 1}).Build(1); err == nil {
		t.Fatal("single-class model accepted")
	}
}

func TestScaledModelSmaller(t *testing.T) {
	full, err := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumParams() >= full.NumParams() {
		t.Fatalf("scale 0.5 not smaller: %d vs %d", half.NumParams(), full.NumParams())
	}
	if half.OutDim() != 10 {
		t.Fatal("scaling must not change class count")
	}
}

// Training sanity: a few SGD steps on a separable toy problem must reduce
// the loss.
func TestModelLearnsToyProblem(t *testing.T) {
	m, err := NewBuilder(2).Dense(16).ReLU().Dense(2).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	n := 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cl := i % 2
		labels[i] = cl
		x.Data[i*2] = rng.NormFloat64()*0.3 + float64(cl*2-1)
		x.Data[i*2+1] = rng.NormFloat64() * 0.3
	}
	first := -1.0
	var last float64
	for step := 0; step < 60; step++ {
		m.ZeroGrad()
		logits := m.Forward(x, true)
		d := tensor.New(logits.Shape()...)
		last = SoftmaxCrossEntropy(logits, labels, d)
		if first < 0 {
			first = last
		}
		m.Backward(d, nil)
		tensor.Axpy(-0.5, m.Grads(), m.Params())
	}
	if last > first/4 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
	if acc := Accuracy(m.Forward(x, false), labels); acc < 0.95 {
		t.Fatalf("toy accuracy %v", acc)
	}
}

func expectPanic(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Fatal("expected panic")
	}
}
