package nn

import (
	"fmt"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// reluLayer applies max(0, x) elementwise. Placed behind a layer of the
// model it rectifies that layer's output in place, and placed ahead of one
// it zeroes the gradient that layer hands back in place; otherwise it owns
// the buffer. The backward mask is its own output: y > 0 exactly where
// x > 0, NaN included. Between a convolution and a max-pool it is part of
// the fused block Build makes of the three (convPoolLayer).
type reluLayer struct {
	placement
	shape []int
	y     *tensor.Tensor // the output: the input itself when ownInput
	dx    *tensor.Tensor // the input gradient, unless ownGrad
}

// ReLU appends a rectified-linear activation.
func (b *Builder) ReLU() *Builder {
	b.add(&reluLayer{})
	return b
}

func (l *reluLayer) Name() string { return "relu" }

func (l *reluLayer) Resolve(in []int) ([]int, error) {
	l.shape = append([]int(nil), in...)
	return in, nil
}

func (l *reluLayer) ParamCount() int                              { return 0 }
func (l *reluLayer) Bind(params, grads []float64, rng *prng.Rand) {}

func (l *reluLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.ownInput {
		for i, v := range x.Data {
			if !(v > 0) {
				x.Data[i] = 0
			}
		}
		l.y = x
		return x
	}
	if l.y == nil {
		l.y = tensor.New(x.Shape()...)
	} else if l.y.Dim(0) != x.Dim(0) {
		l.y.SetDim0(x.Dim(0))
	}
	for i, v := range x.Data {
		if v > 0 {
			l.y.Data[i] = v
		} else {
			l.y.Data[i] = 0
		}
	}
	return l.y
}

func (l *reluLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.first {
		return nil
	}
	dx := dy
	if !l.ownGrad {
		if l.dx == nil {
			l.dx = tensor.New(dy.Shape()...)
		} else if l.dx.Dim(0) != dy.Dim(0) {
			l.dx.SetDim0(dy.Dim(0))
		}
		dx = l.dx
	}
	y := l.y.Data[:len(dy.Data)]
	for i, v := range dy.Data {
		if y[i] > 0 {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (l *reluLayer) FwdFLOPs() float64 { return float64(numel(l.shape)) }

// flattenLayer reshapes [N, C, H, W] (or any rank) to [N, D].
type flattenLayer struct {
	placement
	in       []int
	fwd, bwd *tensor.Tensor // cached reshape views, re-used while the
	// neighbouring layers keep handing over the same backing buffer
}

// Flatten appends a reshape to a flat per-sample vector.
func (b *Builder) Flatten() *Builder {
	b.add(&flattenLayer{})
	return b
}

func (l *flattenLayer) Name() string { return "flatten" }

func (l *flattenLayer) Resolve(in []int) ([]int, error) {
	l.in = append([]int(nil), in...)
	return []int{numel(in)}, nil
}

func (l *flattenLayer) ParamCount() int                              { return 0 }
func (l *flattenLayer) Bind(params, grads []float64, rng *prng.Rand) {}

func (l *flattenLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.fwd == nil || len(l.fwd.Data) != len(x.Data) || &l.fwd.Data[0] != &x.Data[0] {
		l.fwd = x.Reshape(x.Dim(0), numel(l.in))
	}
	return l.fwd
}

func (l *flattenLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.first {
		return nil
	}
	if l.bwd == nil || len(l.bwd.Data) != len(dy.Data) || &l.bwd.Data[0] != &dy.Data[0] {
		l.bwd = dy.Reshape(prependBatch(dy.Dim(0), l.in)...)
	}
	return l.bwd
}

func (l *flattenLayer) FwdFLOPs() float64 { return 0 }

// dropoutLayer implements inverted dropout: at train time each activation
// is zeroed with probability p and survivors are scaled by 1/(1-p); at eval
// time it is the identity.
type dropoutLayer struct {
	placement
	p     float64
	shape []int
	rng   *prng.Rand
	keep  []bool
	y     *tensor.Tensor
	dx    *tensor.Tensor
}

// Dropout appends an inverted-dropout layer with drop probability p.
func (b *Builder) Dropout(p float64) *Builder {
	if p < 0 || p >= 1 {
		b.fail(fmt.Errorf("nn: dropout probability %v outside [0,1)", p))
		return b
	}
	b.add(&dropoutLayer{p: p})
	return b
}

func (l *dropoutLayer) Name() string { return "dropout" }

func (l *dropoutLayer) Resolve(in []int) ([]int, error) {
	l.shape = append([]int(nil), in...)
	return in, nil
}

func (l *dropoutLayer) ParamCount() int { return 0 }

func (l *dropoutLayer) Bind(params, grads []float64, rng *prng.Rand) {
	l.rng = rng
}

func (l *dropoutLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.p == 0 {
		// Identity at eval time; mark mask as unused.
		l.keep = nil
		return x
	}
	n := x.Numel()
	if l.y == nil {
		l.y = tensor.New(x.Shape()...)
	} else if l.y.Dim(0) != x.Dim(0) {
		l.y.SetDim0(x.Dim(0))
	}
	if cap(l.keep) >= n {
		l.keep = l.keep[:n]
	} else {
		l.keep = make([]bool, n)
	}
	scale := 1 / (1 - l.p)
	for i, v := range x.Data {
		if l.rng.Float64() < l.p {
			l.keep[i] = false
			l.y.Data[i] = 0
		} else {
			l.keep[i] = true
			l.y.Data[i] = v * scale
		}
	}
	return l.y
}

func (l *dropoutLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.first {
		return nil
	}
	if l.keep == nil {
		return dy // eval-mode forward: identity
	}
	if l.dx == nil {
		l.dx = tensor.New(dy.Shape()...)
	} else if l.dx.Dim(0) != dy.Dim(0) {
		l.dx.SetDim0(dy.Dim(0))
	}
	scale := 1 / (1 - l.p)
	for i, v := range dy.Data {
		if l.keep[i] {
			l.dx.Data[i] = v * scale
		} else {
			l.dx.Data[i] = 0
		}
	}
	return l.dx
}

func (l *dropoutLayer) FwdFLOPs() float64 { return float64(numel(l.shape)) }
