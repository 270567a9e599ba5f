package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// denseLayer is a fully connected layer: y = xW + b, with W stored [in,out].
type denseLayer struct {
	placement
	in, out int
	w, b    []float64      // views into the model's flat parameter vector
	dw, db  []float64      // views into the model's flat gradient vector
	wView   *tensor.Tensor // [in,out] matrix view of w, fixed at Bind
	dwView  *tensor.Tensor // [in,out] matrix view of dw, fixed at Bind
	x       *tensor.Tensor // cached input for backward
	dx      *tensor.Tensor // input gradient: none when first, x when gradInInput
	y       *tensor.Tensor // scratch for output
}

// Dense appends a fully connected layer with the given output width.
func (b *Builder) Dense(out int) *Builder {
	if out <= 0 {
		b.fail(fmt.Errorf("nn: Dense width must be positive, got %d", out))
		return b
	}
	b.add(&denseLayer{out: out})
	return b
}

func (l *denseLayer) Name() string { return "dense" }

func (l *denseLayer) Resolve(in []int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("nn: dense layer needs flat input, got shape %v (insert Flatten)", in)
	}
	l.in = in[0]
	return []int{l.out}, nil
}

func (l *denseLayer) ParamCount() int { return l.in*l.out + l.out }

func (l *denseLayer) Bind(params, grads []float64, rng *prng.Rand) {
	l.w, l.b = params[:l.in*l.out], params[l.in*l.out:]
	l.wView = tensor.FromSlice(l.w, l.in, l.out)
	if grads != nil {
		l.dw, l.db = grads[:l.in*l.out], grads[l.in*l.out:]
		l.dwView = tensor.FromSlice(l.dw, l.in, l.out)
	}
	// He initialisation, appropriate for the ReLU networks used here.
	std := math.Sqrt(2.0 / float64(l.in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * std
	}
	for i := range l.b {
		l.b[i] = 0
	}
}

func (l *denseLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	l.x = x
	if l.y == nil {
		l.y = tensor.New(n, l.out)
	} else if l.y.Dim(0) != n {
		l.y.SetDim0(n)
	}
	tensor.MatMulAddBias(l.y, x, l.wView, l.b)
	return l.y
}

func (l *denseLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Dim(0)
	// dW += x^T dy, accumulated straight into the model's gradient vector
	// so repeated Backward calls within one optimizer step add up.
	tensor.MatMulATBAdd(l.dwView, l.x, dy)
	// db += column sums of dy.
	for i := 0; i < n; i++ {
		row := dy.Data[i*l.out : (i+1)*l.out]
		for j, v := range row {
			l.db[j] += v
		}
	}
	if l.first {
		return nil
	}
	// dx = dy W^T, into the input's storage once dW has read it.
	switch {
	case l.gradInInput:
		l.dx = l.x
	case l.dx == nil:
		l.dx = tensor.New(n, l.in)
	case l.dx.Dim(0) != n:
		l.dx.SetDim0(n)
	}
	tensor.MatMulABT(l.dx, dy, l.wView)
	return l.dx
}

func (l *denseLayer) FwdFLOPs() float64 {
	// One MAC = 2 FLOPs, plus the bias add.
	return float64(2*l.in*l.out + l.out)
}
