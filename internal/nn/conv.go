package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// convLayer is a 2D convolution over NCHW tensors, implemented as
// im2col + matmul per sample, one sample after another on the calling
// goroutine. Forward and Backward share the layer's one convScratch,
// built by the first pass, so steady-state batches allocate nothing. A
// model is never run by two goroutines at once (its layers keep their
// activations), so the scratch needs no pool: one set per layer, held as
// long as the layer, whatever the scheduler or the collector did.
type convLayer struct {
	placement
	outC        int
	kh, kw      int
	stride, pad int
	geom        tensor.ConvGeom
	w, b        []float64
	dw, db      []float64
	wView       *tensor.Tensor // [outC, ColRows] view of w, fixed at Bind
	x           *tensor.Tensor
	y, dx       *tensor.Tensor // dx: none when first, x when gradInInput
	scratch     *convScratch
}

// convScratch is the im2col and gradient-accumulation storage of a layer.
// The out/dout tensors are header-only views whose Data is re-pointed at
// the current sample's slice of the batch output or its gradient, so
// per-sample matmul calls allocate nothing. The backward half (dw, db and,
// unless the layer is first, dcol) is allocated by the first backward
// on the layer: a layer only ever run forward never holds it.
type convScratch struct {
	col, dcol *tensor.Tensor
	dw        *tensor.Tensor
	db        []float64
	out, dout *tensor.Tensor
}

func (l *convLayer) getScratch() *convScratch {
	if l.scratch == nil {
		g := l.geom
		l.scratch = &convScratch{col: tensor.New(g.ColRows(), g.ColCols())}
	}
	return l.scratch
}

// backwardHalf allocates cs's gradient storage on its first backward.
func (l *convLayer) backwardHalf(cs *convScratch) {
	g := l.geom
	if cs.dw == nil {
		cs.dw = tensor.New(l.outC, g.ColRows())
		cs.db = make([]float64, l.outC)
	}
	if cs.dcol == nil && !l.first {
		cs.dcol = tensor.New(g.ColRows(), g.ColCols())
	}
}

// view re-points the header *v at data, building it on first use.
func view(v **tensor.Tensor, data []float64, rows, cols int) *tensor.Tensor {
	if *v == nil {
		*v = tensor.FromSlice(data, rows, cols)
	}
	(*v).Data = data
	return *v
}

// Conv2D appends a convolution with outC filters of size k x k.
func (b *Builder) Conv2D(outC, k, stride, pad int) *Builder {
	if outC <= 0 || k <= 0 {
		b.fail(fmt.Errorf("nn: Conv2D bad filters=%d k=%d", outC, k))
		return b
	}
	b.add(&convLayer{outC: outC, kh: k, kw: k, stride: stride, pad: pad})
	return b
}

func (l *convLayer) Name() string { return "conv2d" }

func (l *convLayer) Resolve(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: conv2d needs CHW input, got shape %v", in)
	}
	g, err := tensor.NewConvGeom(in[0], in[1], in[2], l.kh, l.kw, l.stride, l.pad)
	if err != nil {
		return nil, err
	}
	l.geom = g
	return []int{l.outC, g.OutH, g.OutW}, nil
}

func (l *convLayer) ParamCount() int {
	return l.outC*l.geom.ColRows() + l.outC
}

func (l *convLayer) Bind(params, grads []float64, rng *prng.Rand) {
	nw := l.outC * l.geom.ColRows()
	l.w, l.b = params[:nw], params[nw:]
	l.dw, l.db = grads[:nw], grads[nw:]
	l.wView = tensor.FromSlice(l.w, l.outC, l.geom.ColRows())
	std := math.Sqrt(2.0 / float64(l.geom.ColRows()))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * std
	}
	for i := range l.b {
		l.b[i] = 0
	}
}

func (l *convLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	l.x = x
	if l.y == nil {
		l.y = tensor.New(n, l.outC, l.geom.OutH, l.geom.OutW)
	} else if l.y.Dim(0) != n {
		l.y.SetDim0(n)
	}
	g := l.geom
	inSize := g.InC * g.InH * g.InW
	outSize := l.outC * g.OutH * g.OutW
	cs := l.getScratch()
	for s := 0; s < n; s++ {
		img := l.x.Data[s*inSize : (s+1)*inSize]
		g.Im2Col(img, cs.col.Data)
		out := view(&cs.out, l.y.Data[s*outSize:(s+1)*outSize], l.outC, g.ColCols())
		tensor.MatMul(out, l.wView, cs.col)
		// Add per-filter bias across the spatial map.
		for f := 0; f < l.outC; f++ {
			bf := l.b[f]
			row := out.Data[f*g.ColCols() : (f+1)*g.ColCols()]
			for i := range row {
				row[i] += bf
			}
		}
	}
	return l.y
}

// Backward accumulates the batch's parameter gradient in scratch and adds
// it to the layer's dw/db once at the end.
func (l *convLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Dim(0)
	g := l.geom
	switch {
	case l.first: // l.dx stays nil
	case l.gradInInput: // a sample's col2im follows its im2col
		l.dx = l.x
	case l.dx == nil:
		l.dx = tensor.New(n, g.InC, g.InH, g.InW)
	case l.dx.Dim(0) != n:
		l.dx.SetDim0(n)
	}
	inSize := g.InC * g.InH * g.InW
	outSize := l.outC * g.OutH * g.OutW
	cs := l.getScratch()
	l.backwardHalf(cs)
	tensor.ZeroVec(cs.dw.Data)
	tensor.ZeroVec(cs.db)
	for s := 0; s < n; s++ {
		img := l.x.Data[s*inSize : (s+1)*inSize]
		g.Im2Col(img, cs.col.Data)
		dout := view(&cs.dout, dy.Data[s*outSize:(s+1)*outSize], l.outC, g.ColCols())
		// dW += dOut x col^T, accumulated straight into scratch.
		tensor.MatMulABTAdd(cs.dw, dout, cs.col)
		// db_s = row sums of dOut.
		for f := 0; f < l.outC; f++ {
			row := dout.Data[f*g.ColCols() : (f+1)*g.ColCols()]
			var sum float64
			for _, v := range row {
				sum += v
			}
			cs.db[f] += sum
		}
		if l.first {
			continue
		}
		// dcol = W^T x dOut; dx_s = col2im(dcol).
		tensor.MatMulATB(cs.dcol, l.wView, dout)
		dximg := l.dx.Data[s*inSize : (s+1)*inSize]
		for i := range dximg {
			dximg[i] = 0
		}
		g.Col2Im(cs.dcol.Data, dximg)
	}
	tensor.Axpy(1, cs.dw.Data, l.dw)
	tensor.Axpy(1, cs.db, l.db)
	return l.dx
}

func (l *convLayer) FwdFLOPs() float64 {
	// MACs = ColRows * outC * spatial positions; 2 FLOPs per MAC + bias add.
	g := l.geom
	return float64(2*g.ColRows()*l.outC*g.ColCols() + l.outC*g.ColCols())
}

// maxPoolLayer is a k x k max pooling with stride k (the only configuration
// the paper's models need).
type maxPoolLayer struct {
	placement
	k       int
	c, h, w int
	oh, ow  int
	argmax  []int32 // flat input index of each output's max, in its window
	x       *tensor.Tensor
	y, dx   *tensor.Tensor // dx: x when gradInInput
}

// MaxPool2D appends k x k max pooling with stride k.
func (b *Builder) MaxPool2D(k int) *Builder {
	if k <= 0 {
		b.fail(fmt.Errorf("nn: MaxPool2D bad k=%d", k))
		return b
	}
	b.add(&maxPoolLayer{k: k})
	return b
}

func (l *maxPoolLayer) Name() string { return "maxpool2d" }

func (l *maxPoolLayer) Resolve(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool needs CHW input, got %v", in)
	}
	l.c, l.h, l.w = in[0], in[1], in[2]
	if l.h%l.k != 0 || l.w%l.k != 0 {
		return nil, fmt.Errorf("nn: maxpool %d does not divide input %dx%d", l.k, l.h, l.w)
	}
	l.oh, l.ow = l.h/l.k, l.w/l.k
	return []int{l.c, l.oh, l.ow}, nil
}

func (l *maxPoolLayer) ParamCount() int                              { return 0 }
func (l *maxPoolLayer) Bind(params, grads []float64, rng *prng.Rand) {}

func (l *maxPoolLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	outSize := l.c * l.oh * l.ow
	if l.y == nil {
		l.y = tensor.New(n, l.c, l.oh, l.ow)
	} else if l.y.Dim(0) != n {
		l.y.SetDim0(n)
	}
	if cap(l.argmax) >= n*outSize {
		l.argmax = l.argmax[:n*outSize]
	} else {
		l.argmax = make([]int32, n*outSize)
	}
	l.x = x
	inSize := l.c * l.h * l.w
	for s := 0; s < n; s++ {
		in := x.Data[s*inSize : (s+1)*inSize]
		out := l.y.Data[s*outSize : (s+1)*outSize]
		am := l.argmax[s*outSize : (s+1)*outSize]
		o := 0
		for c := 0; c < l.c; c++ {
			base := c * l.h * l.w
			for oy := 0; oy < l.oh; oy++ {
				for ox := 0; ox < l.ow; ox++ {
					// A window with no value above -Inf (all NaN or -Inf)
					// routes its gradient to its own first element.
					best := math.Inf(-1)
					bestIdx := base + oy*l.k*l.w + ox*l.k
					for ky := 0; ky < l.k; ky++ {
						rowBase := base + (oy*l.k+ky)*l.w + ox*l.k
						for kx := 0; kx < l.k; kx++ {
							if v := in[rowBase+kx]; v > best {
								best = v
								bestIdx = rowBase + kx
							}
						}
					}
					out[o] = best
					am[o] = int32(bestIdx)
					o++
				}
			}
		}
	}
	return l.y
}

func (l *maxPoolLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.first {
		return nil
	}
	n := dy.Dim(0)
	switch {
	case l.gradInInput:
		l.dx = l.x
	case l.dx == nil:
		l.dx = tensor.New(n, l.c, l.h, l.w)
	case l.dx.Dim(0) != n:
		l.dx.SetDim0(n)
	}
	// The input gradient is written window by window. The windows tile
	// the input and each argmax lies in its own window, so when dx is the
	// input's storage, the mask read at a window's argmax still sees the
	// input: nothing has zeroed that window yet.
	inSize := l.c * l.h * l.w
	outSize := l.c * l.oh * l.ow
	for s := 0; s < n; s++ {
		xs := l.x.Data[s*inSize : (s+1)*inSize]
		dxs := l.dx.Data[s*inSize : (s+1)*inSize]
		dys := dy.Data[s*outSize : (s+1)*outSize]
		am := l.argmax[s*outSize : (s+1)*outSize]
		o := 0
		for c := 0; c < l.c; c++ {
			base := c * l.h * l.w
			for oy := 0; oy < l.oh; oy++ {
				for ox := 0; ox < l.ow; ox++ {
					keep := !l.masks || xs[am[o]] > 0
					for ky := 0; ky < l.k; ky++ {
						rowBase := base + (oy*l.k+ky)*l.w + ox*l.k
						clear(dxs[rowBase : rowBase+l.k])
					}
					if keep {
						dxs[am[o]] += dys[o]
					}
					o++
				}
			}
		}
	}
	return l.dx
}

func (l *maxPoolLayer) FwdFLOPs() float64 {
	return float64(l.c * l.oh * l.ow * l.k * l.k)
}
