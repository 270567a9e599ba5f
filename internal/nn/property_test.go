package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Property: softmax-CE logit gradients sum to zero per row (probabilities
// minus a one-hot both sum to 1) for arbitrary logits and labels.
func TestSoftmaxGradientRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(8), 2+rng.Intn(10)
		logits := tensor.New(n, c)
		logits.RandNormal(rng, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		d := tensor.New(n, c)
		loss := SoftmaxCrossEntropy(logits, labels, d)
		if math.IsNaN(loss) || loss < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < c; j++ {
				sum += d.At(i, j)
			}
			if math.Abs(sum) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: loss is minimal exactly when logits are concentrated on the
// label — pushing extra mass onto the true class cannot increase loss.
func TestSoftmaxMonotoneInTrueLogit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 2 + rng.Intn(8)
		logits := tensor.New(1, c)
		logits.RandNormal(rng, 2)
		labels := []int{rng.Intn(c)}
		before := SoftmaxCrossEntropy(logits, labels, nil)
		logits.Data[labels[0]] += 1
		after := SoftmaxCrossEntropy(logits, labels, nil)
		return after <= before+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Accuracy is invariant to adding a constant to every logit in
// a row (softmax shift invariance carries to argmax).
func TestAccuracyShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(6), 2+rng.Intn(6)
		logits := tensor.New(n, c)
		logits.RandNormal(rng, 1)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		a1 := Accuracy(logits, labels)
		shift := rng.NormFloat64() * 100
		for i := 0; i < n; i++ {
			for j := 0; j < c; j++ {
				logits.Data[i*c+j] += shift
			}
		}
		return Accuracy(logits, labels) == a1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a forward pass is deterministic in eval mode (no dropout
// randomness, no hidden state leaks) for arbitrary inputs.
func TestForwardEvalDeterministic(t *testing.T) {
	spec := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.34}
	m, err := spec.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 1, 28, 28)
		x.RandNormal(rng, 1)
		a := m.Forward(x, false).Clone()
		b := m.Forward(x, false)
		return tensor.MaxAbsDiff(a.Data, b.Data) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: a training step reads the caller's batch and logit gradient
// and writes neither, whatever layer sits at either end of the model — a
// ReLU first (its input is the caller's batch), a ReLU last (its incoming
// gradient is the caller's dLogits), or a pass-through layer between the
// caller and a ReLU.
func TestCallerBuffersUntouched(t *testing.T) {
	builders := []func() *Builder{
		func() *Builder { return NewBuilder(6).ReLU().Dense(5) },
		func() *Builder { return NewBuilder(6).Dense(5).ReLU() },
		func() *Builder { return NewBuilder(6).ReLU().ReLU().Dense(4).ReLU() },
		func() *Builder { return NewBuilder(6).Dropout(0.3).ReLU().Dense(4).ReLU().Flatten() },
		func() *Builder { return NewBuilder(1, 4, 4).Flatten().ReLU().Dense(3) },
		func() *Builder { return NewBuilder(1, 4, 4).MaxPool2D(2).ReLU().Flatten().Dense(3).ReLU() },
	}
	for bi, build := range builders {
		m, err := build().Build(int64(bi))
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64, train bool) bool {
			rng := rand.New(rand.NewSource(seed))
			x, _ := randBatch(rng, m, 1+rng.Intn(5))
			x0 := x.Clone()
			logits := m.Forward(x, train)
			d := tensor.New(logits.Shape()...)
			d.RandNormal(rng, 1)
			d0 := d.Clone()
			m.Backward(d, nil)
			for i := range x.Data {
				if math.Float64bits(x.Data[i]) != math.Float64bits(x0.Data[i]) {
					return false
				}
			}
			for i := range d.Data {
				if math.Float64bits(d.Data[i]) != math.Float64bits(d0.Data[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("model %d: %v", bi, err)
		}
	}
}

// Property: gradient accumulation is linear — grad(batch A) + grad(batch B)
// equals accumulated grads from backward on A then B.
func TestGradAccumulationLinear(t *testing.T) {
	m, err := NewBuilder(6).Dense(5).ReLU().Dense(3).Build(9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	xa, la := randBatch(rng, m, 3)
	xb, lb := randBatch(rng, m, 3)
	ga := analyticGrad(m, xa, la)
	gb := analyticGrad(m, xb, lb)
	m.ZeroGrad()
	for _, p := range []struct {
		x *tensor.Tensor
		l []int
	}{{xa, la}, {xb, lb}} {
		logits := m.Forward(p.x, false)
		d := tensor.New(logits.Shape()...)
		SoftmaxCrossEntropy(logits, p.l, d)
		m.Backward(d, nil)
	}
	want := make([]float64, len(ga))
	tensor.AddInto(want, ga, gb)
	if d := tensor.MaxAbsDiff(m.Grads(), want); d > 1e-12 {
		t.Fatalf("accumulated grads differ by %v", d)
	}
}
