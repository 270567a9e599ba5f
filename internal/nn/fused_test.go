package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// hostile overwrites about one entry in eight of v with NaN, +Inf, -Inf,
// -0 or +0.
func hostile(rng *rand.Rand, v []float64) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refPool is the oracle's max-pool: k x k windows at stride k, each
// output's flat input index of its window's first maximum kept as an
// int32, a window with no value above -Inf routing its gradient to its
// first element, and an input gradient of its own.
type refPool struct {
	k, c, h, w int
	argmax     []int32
	y, dx      *tensor.Tensor
}

func (l *refPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, oh, ow := x.Dim(0), l.h/l.k, l.w/l.k
	l.y = tensor.New(n, l.c, oh, ow)
	l.argmax = make([]int32, len(l.y.Data))
	o := 0
	for s := 0; s < n; s++ {
		for c := 0; c < l.c; c++ {
			base := (s*l.c + c) * l.h * l.w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best, at := math.Inf(-1), base+oy*l.k*l.w+ox*l.k
					for ky := 0; ky < l.k; ky++ {
						for kx := 0; kx < l.k; kx++ {
							i := base + (oy*l.k+ky)*l.w + ox*l.k + kx
							if x.Data[i] > best {
								best, at = x.Data[i], i
							}
						}
					}
					l.y.Data[o], l.argmax[o] = best, int32(at)
					o++
				}
			}
		}
	}
	return l.y
}

func (l *refPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.dx = tensor.New(dy.Dim(0), l.c, l.h, l.w)
	for o, i := range l.argmax {
		l.dx.Data[i] += dy.Data[o]
	}
	return l.dx
}

// fusedCase is one conv → ReLU → max-pool geometry.
type fusedCase struct {
	inC, hw                  int
	outC, k, stride, pad, pk int
}

func (c fusedCase) String() string {
	return fmt.Sprintf("in %dx%dx%d conv %d k%d s%d p%d pool %d", c.inC, c.hw, c.hw, c.outC, c.k, c.stride, c.pad, c.pk)
}

var fusedCases = []fusedCase{
	{1, 28, 6, 5, 1, 2, 2},  // the paper CNN's first block: 28x28 → 14x14
	{6, 14, 16, 5, 1, 0, 2}, // and its second: 10x10 → 5x5
	{3, 9, 4, 3, 1, 1, 3},   // 9x9 → 3x3
	{2, 13, 5, 3, 2, 2, 2},  // 8x8 → 4x4
	{2, 12, 3, 3, 2, 1, 3},  // 6x6 → 2x2
	{4, 10, 7, 4, 1, 1, 3},  // 9x9 → 3x3
	{1, 8, 1, 3, 1, 1, 2},   // 8x8 → 4x4
	{3, 17, 8, 5, 2, 2, 3},  // 9x9 → 3x3
}

// layersOf builds one case's oracle — a convolution, a ReLU and a
// refPool — and its fused layer, resolved and bound to equal parameters:
// one filter in three has a bias that makes every window of its map
// negative, and a few parameters are -0.
func layersOf(t *testing.T, c fusedCase, rng *rand.Rand) (conv *convLayer, relu *reluLayer, pool *refPool, fused *convPoolLayer, grads [2][]float64) {
	t.Helper()
	conv = &convLayer{outC: c.outC, kh: c.k, kw: c.k, stride: c.stride, pad: c.pad}
	relu = &reluLayer{}
	fused = fuse([]Layer{
		&convLayer{outC: c.outC, kh: c.k, kw: c.k, stride: c.stride, pad: c.pad},
		&reluLayer{}, &maxPoolLayer{k: c.pk},
	})[0].(*convPoolLayer)
	shape, err := conv.Resolve([]int{c.inC, c.hw, c.hw})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	relu.Resolve(shape)
	pool = &refPool{k: c.pk, c: shape[0], h: shape[1], w: shape[2]}
	fshape, err := fused.Resolve([]int{c.inC, c.hw, c.hw})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if want := []int{shape[0], shape[1] / c.pk, shape[2] / c.pk}; fmt.Sprint(fshape) != fmt.Sprint(want) || shape[1]%c.pk != 0 {
		t.Fatalf("%v: fused shape %v, conv output %v", c, fshape, shape)
	}
	n := conv.ParamCount()
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	nw := n - c.outC
	for f := 0; f < c.outC; f++ {
		switch f % 3 {
		case 1: // every window of this map is negative
			params[nw+f] = -1e6
		case 2:
			params[nw+f] = math.Copysign(0, -1)
		}
	}
	params[0] = math.Copysign(0, -1)
	pu, pf := make([]float64, n), make([]float64, n)
	grads = [2][]float64{make([]float64, n), make([]float64, n)}
	conv.Bind(pu, grads[0], prng.New(1))
	fused.Bind(pf, grads[1], prng.New(1))
	copy(pu, params) // over what Bind drew
	copy(pf, params)
	return conv, relu, pool, fused, grads
}

// TestFusedMatchesUnfused is the differential test of the fused block:
// for every geometry, at batches 1, 7 and 50, on clean inputs and on
// inputs and output gradients holding NaN, ±Inf and -0, the fused
// layer's output, input gradient and parameter gradient are bit for bit
// those of a convolution, a ReLU and refPool composed by hand, each
// owning every buffer it writes — whether the fused layer owns its input
// gradient, writes it into its input, or is first and computes none. An
// evaluation-only forward gives the same output too.
func TestFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, c := range fusedCases {
		for _, n := range []int{1, 7, 50} {
			for _, p := range []placement{{}, {gradInInput: true}, {first: true}} {
				for _, bad := range []bool{false, true} {
					where := fmt.Sprintf("%v batch %d %+v hostile %t", c, n, p, bad)
					conv, relu, pool, fused, grads := layersOf(t, c, rng)
					fused.place(p)
					x := tensor.New(n, c.inC, c.hw, c.hw)
					x.RandNormal(rng, 1)
					if bad {
						hostile(rng, x.Data)
					}
					x0 := x.Clone()
					want := pool.Forward(relu.Forward(conv.Forward(x, true), true)).Clone()
					fx := x.Clone()
					got := fused.Forward(fx, true)
					if !sameBits(got.Data, want.Data) {
						t.Fatalf("%s: output differs", where)
					}
					dy := tensor.New(want.Shape()...)
					dy.RandNormal(rng, 1)
					if bad {
						hostile(rng, dy.Data)
					}
					g := conv.Backward(relu.Backward(pool.Backward(dy)))
					dx := fused.Backward(dy.Clone())
					if !sameBits(grads[1], grads[0]) {
						t.Fatalf("%s: parameter gradient differs", where)
					}
					switch {
					case p.first:
						if dx != nil {
							t.Fatalf("%s: a first layer returned an input gradient", where)
						}
					case !sameBits(dx.Data, g.Data):
						t.Fatalf("%s: input gradient differs", where)
					case p.gradInInput && &dx.Data[0] != &fx.Data[0]:
						t.Fatalf("%s: input gradient not written into the input", where)
					}
					if !sameBits(x.Data, x0.Data) {
						t.Fatalf("%s: the oracle wrote its input", where)
					}
					if got := fused.Forward(x, false); !sameBits(got.Data, want.Data) {
						t.Fatalf("%s: evaluation output differs", where)
					}
				}
			}
		}
	}
}

// TestFusedModelMatchesUnfused: models of one or two fused blocks, a
// flatten and a dense head give, through Model.Forward and
// Model.Backward, the logits and parameter gradient bit for bit of the
// same layers assembled unfused, at batches 1, 7 and 50, in training and
// evaluation, on hostile batches and logit gradients as well.
func TestFusedModelMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stack := func(two bool) *Builder {
		b := NewBuilder(2, 12, 12)
		b.Conv2D(4, 3, 1, 1).ReLU().MaxPool2D(2) // 6x6
		if two {
			b.Conv2D(5, 3, 2, 2).ReLU().MaxPool2D(2) // 4x4 → 2x2
		}
		return b.Flatten().Dense(3)
	}
	for _, two := range []bool{false, true} {
		for _, n := range []int{1, 7, 50} {
			for _, bad := range []bool{false, true} {
				where := fmt.Sprintf("two blocks %t, batch %d, hostile %t", two, n, bad)
				m, err := stack(two).Build(3)
				if err != nil {
					t.Fatal(err)
				}
				b := stack(two)
				o, err := assemble(b.inShape, b.layers, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.layers) >= len(o.layers) {
					t.Fatalf("%s: %d layers fused, %d unfused", where, len(m.layers), len(o.layers))
				}
				if !sameBits(m.Params(), o.Params()) || m.Cost() != o.Cost() {
					t.Fatalf("%s: parameters or cost differ", where)
				}
				x := tensor.New(n, 2, 12, 12)
				x.RandNormal(rng, 1)
				if bad {
					hostile(rng, x.Data[:len(x.Data)/2])
				}
				if !sameBits(m.Forward(x, false).Data, o.Forward(x, false).Data) {
					t.Fatalf("%s: evaluation logits differ", where)
				}
				logits := m.Forward(x, true)
				if !sameBits(logits.Data, o.Forward(x, true).Data) {
					t.Fatalf("%s: logits differ", where)
				}
				d := tensor.New(logits.Shape()...)
				d.RandNormal(rng, 1)
				if bad {
					hostile(rng, d.Data)
				}
				m.ZeroGrad()
				o.ZeroGrad()
				m.Backward(d, nil)
				o.Backward(d, nil)
				if !sameBits(m.Grads(), o.Grads()) {
					t.Fatalf("%s: gradient differs", where)
				}
			}
		}
	}
}
