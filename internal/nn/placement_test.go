package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randomStack appends 2–8 random layers to a builder over a random input
// shape: conv, ReLU, max-pool, flatten, dropout and dense, each where its
// input shape admits it, ending flat.
func randomStack(rng *rand.Rand) *Builder {
	shape := []int{2 + rng.Intn(6)}
	if rng.Intn(3) > 0 {
		hw := 4 << rng.Intn(2)
		shape = []int{1 + rng.Intn(3), hw, hw}
	}
	b := NewBuilder(shape...)
	n := 2 + rng.Intn(7)
	for i := 0; i < n; i++ {
		kinds := []string{"relu", "relu", "dropout", "flatten", "dense", "dense"}
		if len(shape) == 3 {
			kinds = []string{"relu", "relu", "dropout", "flatten", "conv", "conv"}
			if shape[1]%2 == 0 {
				kinds = append(kinds, "pool", "pool", "pool")
			}
			if i == n-1 {
				kinds = []string{"flatten"}
			}
		}
		if i == 0 && rng.Intn(2) == 0 { // a parameter layer ahead of the rest
			kinds = []string{"dense"}
			if len(shape) == 3 {
				kinds = []string{"conv"}
			}
		}
		switch kinds[rng.Intn(len(kinds))] {
		case "relu":
			b.ReLU()
		case "dropout":
			b.Dropout(0.3 * float64(rng.Intn(2)))
		case "flatten":
			b.Flatten()
			shape = []int{numel(shape)}
		case "dense":
			shape = []int{2 + rng.Intn(5)}
			b.Dense(shape[0])
		case "conv":
			k := 1 + 2*rng.Intn(2)
			shape = []int{1 + rng.Intn(3), shape[1], shape[2]}
			b.Conv2D(shape[0], k, 1, k/2)
		case "pool":
			shape = []int{shape[0], shape[1] / 2, shape[2] / 2}
			b.MaxPool2D(2)
		}
	}
	return b
}

// TestPlacedMatchesUnplaced: a model as Build places it gives, over two
// training or evaluation steps at different batch sizes, the logits and
// the parameter gradient bit for bit of the same model re-placed as the
// naive oracle — only the first layer known, so every layer owns every
// buffer it writes — and leaves the caller's batch, the logit gradient
// and the features as they were.
func TestPlacedMatchesUnplaced(t *testing.T) {
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for seed := int64(0); seed < 1000; seed++ {
		m, err := randomStack(rand.New(rand.NewSource(seed))).Build(seed)
		if err != nil {
			t.Fatalf("stack %d: %v", seed, err)
		}
		o, err := randomStack(rand.New(rand.NewSource(seed))).Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range o.layers {
			l.(placed).place(placement{first: i == 0})
		}
		var kinds []string
		for _, l := range m.layers {
			kinds = append(kinds, l.Name())
		}
		_, denseHead := m.layers[len(m.layers)-1].(*denseLayer)
		rng := rand.New(rand.NewSource(seed))
		train := rng.Intn(2) == 0
		for step, n := range []int{1 + rng.Intn(5), 1 + rng.Intn(5)} {
			if seed%25 == 0 {
				n = 260 // TestWideBatchMatchesSerial's wide batch
			}
			where := fmt.Sprintf("stack %d %v, step %d (train %v, batch %d)", seed, kinds, step, train, n)
			x, _ := randBatch(rng, m, n)
			x0 := x.Clone()
			logits := m.Forward(x, train)
			if !same(logits.Data, o.Forward(x, train).Data) {
				t.Fatalf("%s: logits differ from the unplaced model's", where)
			}
			d := tensor.New(logits.Shape()...)
			d.RandNormal(rng, 1)
			d0 := d.Clone()
			var extra *tensor.Tensor
			if denseHead && len(m.layers) > 1 && rng.Intn(2) == 0 {
				extra = tensor.New(n, m.FeatureDim())
				extra.RandNormal(rng, 1)
			}
			m.ZeroGrad()
			o.ZeroGrad()
			m.Backward(d, extra)
			o.Backward(d, extra)
			if !same(m.Grads(), o.Grads()) {
				t.Fatalf("%s: gradient differs from the unplaced model's", where)
			}
			if !same(m.Features().Data, o.Features().Data) {
				t.Fatalf("%s: backward wrote the features", where)
			}
			if !same(x.Data, x0.Data) || !same(d.Data, d0.Data) {
				t.Fatalf("%s: the caller's batch or logit gradient was written", where)
			}
		}
	}
}

// A max-pool window holding no value above -Inf (all -Inf, or all NaN)
// routes its gradient to its own first element — not to element 0 of the
// sample — whether the pool owns its input gradient or writes it into its
// input, and fused behind a convolution and its ReLU, a window whose
// maximum is 0 passes nothing.
func TestMaxPoolGradientStaysInWindow(t *testing.T) {
	inf, nan := math.Inf(-1), math.NaN()
	// One sample, two channels of 4x4, 2x2 windows (window order: channel,
	// row, column). Channel 0: a -Inf window, a regular one, a NaN one and
	// a -Inf one; channel 1: zeros and a regular window.
	in := []float64{
		inf, inf, 1, 2,
		inf, inf, 3, 0.5,
		nan, nan, inf, inf,
		nan, nan, inf, inf,

		0, 0, 4, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
	}
	dy := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 2, 2)
	own := make([]float64, len(in))
	own[0], own[6], own[8], own[10] = 1, 2, 3, 4 // window firsts and the 3
	own[16], own[18], own[24], own[26] = 5, 6, 7, 8
	masked := append([]float64(nil), own...)
	for i, v := range in {
		if !(v > 0) {
			masked[i] = 0 // where a ReLU's mask is 0
		}
	}
	for _, c := range []struct {
		name string
		p    placement
		want []float64
	}{
		{"own dx", placement{}, own},
		{"in place", placement{gradInInput: true}, own},
	} {
		l := &maxPoolLayer{k: 2}
		if _, err := l.Resolve([]int{2, 4, 4}); err != nil {
			t.Fatal(err)
		}
		l.place(c.p)
		x := tensor.FromSlice(append([]float64(nil), in...), 1, 2, 4, 4)
		l.Forward(x, true)
		dx := l.Backward(dy)
		if c.p.gradInInput && &dx.Data[0] != &x.Data[0] {
			t.Fatalf("%s: input gradient not written into the input", c.name)
		}
		for i, v := range dx.Data {
			if v != c.want[i] {
				t.Fatalf("%s: dx[%d] = %v, want %v (dx %v)", c.name, i, v, c.want[i], dx.Data)
			}
		}
	}
	// Fused behind a convolution and its ReLU, the pool sees the
	// rectified values and routes nothing where the maximum is 0.
	l := &convPoolLayer{pool: &maxPoolLayer{k: 2}}
	if _, err := l.pool.Resolve([]int{2, 4, 4}); err != nil {
		t.Fatal(err)
	}
	y, arg, dz := make([]float64, 8), make([]uint8, 8), make([]float64, len(in))
	l.rectifyPool(append([]float64(nil), in...), y, arg)
	l.pool.unpool(dz, dy.Data, arg)
	for i, v := range dz {
		if v != masked[i] {
			t.Fatalf("fused: dz[%d] = %v, want %v (dz %v)", i, v, masked[i], dz)
		}
	}
}
