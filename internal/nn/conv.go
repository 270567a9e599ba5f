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
// long as the layer, whatever the scheduler or the collector did. A
// convolution followed by a ReLU and a max-pool runs inside the fused
// convPoolLayer, which uses its geometry, parameters and scratch and
// never its batch-wide output.
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
// the current sample's slice of the batch output or its gradient (or at
// a fused layer's per-sample buffer), so per-sample matmul calls allocate
// nothing. The backward half (dw, db and, unless the layer is first,
// dcol) is allocated by the first backward on the layer: a layer only
// ever run forward never holds it.
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

// bytes is what cs holds (0 for a layer never run).
func (cs *convScratch) bytes() int64 {
	if cs == nil {
		return 0
	}
	n := cap(cs.db)
	for _, t := range []*tensor.Tensor{cs.col, cs.dcol, cs.dw} {
		if t != nil {
			n += cap(t.Data)
		}
	}
	return 8 * int64(n)
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
	outSize := l.outC * l.geom.OutH * l.geom.OutW
	cs := l.getScratch()
	for s := 0; s < n; s++ {
		l.forwardSample(cs, l.sample(x, s), l.y.Data[s*outSize:(s+1)*outSize])
	}
	return l.y
}

// sample is sample s of t, a batch of the layer's inputs (nil if t is).
func (l *convLayer) sample(t *tensor.Tensor, s int) []float64 {
	if t == nil {
		return nil
	}
	n := l.geom.InC * l.geom.InH * l.geom.InW
	return t.Data[s*n : (s+1)*n]
}

// forwardSample writes the convolution of one sample's image into out
// ([outC, OutH*OutW]).
//
//fedtripvet:hotpath
func (l *convLayer) forwardSample(cs *convScratch, img, out []float64) {
	g := l.geom
	g.Im2Col(img, cs.col.Data)
	tensor.MatMul(view(&cs.out, out, l.outC, g.ColCols()), l.wView, cs.col)
	// Add per-filter bias across the spatial map.
	for f := 0; f < l.outC; f++ {
		bf := l.b[f]
		row := out[f*g.ColCols() : (f+1)*g.ColCols()]
		for i := range row {
			row[i] += bf
		}
	}
}

// Backward accumulates the batch's parameter gradient in scratch and adds
// it to the layer's dw/db once at the end.
func (l *convLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Dim(0)
	outSize := l.outC * l.geom.OutH * l.geom.OutW
	cs := l.beginBackward(n)
	for s := 0; s < n; s++ {
		l.backwardSample(cs, l.sample(l.x, s), dy.Data[s*outSize:(s+1)*outSize], l.sample(l.dx, s))
	}
	l.endBackward(cs)
	return l.dx
}

// beginBackward places the input gradient of an n-sample batch and
// zeroes the batch's parameter gradient in scratch.
func (l *convLayer) beginBackward(n int) *convScratch {
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
	cs := l.getScratch()
	l.backwardHalf(cs)
	tensor.ZeroVec(cs.dw.Data)
	tensor.ZeroVec(cs.db)
	return cs
}

// backwardSample adds one sample's parameter gradient, from its image
// and its output gradient dout, to scratch and, unless the layer is
// first, writes its input gradient into dximg.
//
//fedtripvet:hotpath
func (l *convLayer) backwardSample(cs *convScratch, img, dout, dximg []float64) {
	g := l.geom
	g.Im2Col(img, cs.col.Data)
	d := view(&cs.dout, dout, l.outC, g.ColCols())
	// dW += dOut x col^T, accumulated straight into scratch.
	tensor.MatMulABTAdd(cs.dw, d, cs.col)
	// db_s = row sums of dOut.
	for f := 0; f < l.outC; f++ {
		var sum float64
		for _, v := range dout[f*g.ColCols() : (f+1)*g.ColCols()] {
			sum += v
		}
		cs.db[f] += sum
	}
	if l.first {
		return
	}
	// dcol = W^T x dOut; dx_s = col2im(dcol).
	tensor.MatMulATB(cs.dcol, l.wView, d)
	clear(dximg)
	g.Col2Im(cs.dcol.Data, dximg)
}

// endBackward adds the batch's parameter gradient to the layer's.
func (l *convLayer) endBackward(cs *convScratch) {
	tensor.Axpy(1, cs.dw.Data, l.dw)
	tensor.Axpy(1, cs.db, l.db)
}

func (l *convLayer) FwdFLOPs() float64 {
	// MACs = ColRows * outC * spatial positions; 2 FLOPs per MAC + bias add.
	g := l.geom
	return float64(2*g.ColRows()*l.outC*g.ColCols() + l.outC*g.ColCols())
}

// maxPoolLayer is a k x k max pooling with stride k (the only configuration
// the paper's models need). A window's routing fits a byte, so k is at
// most 15.
type maxPoolLayer struct {
	placement
	k       int
	c, h, w int
	oh, ow  int
	// arg routes each output's gradient: 1 + the offset of its window's
	// first maximum, or 0 (set by a fused layer) for none.
	arg   []uint8
	x     *tensor.Tensor
	y, dx *tensor.Tensor // dx: x when gradInInput
}

// MaxPool2D appends k x k max pooling with stride k.
func (b *Builder) MaxPool2D(k int) *Builder {
	if k <= 0 || k*k >= 256 {
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

// size sizes the output and the routing bytes for an n-sample batch.
func (l *maxPoolLayer) size(n int) {
	if l.y == nil {
		l.y = tensor.New(n, l.c, l.oh, l.ow)
	} else if l.y.Dim(0) != n {
		l.y.SetDim0(n)
	}
	if m := n * l.c * l.oh * l.ow; cap(l.arg) >= m {
		l.arg = l.arg[:m]
	} else {
		l.arg = make([]uint8, m)
	}
}

func (l *maxPoolLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	l.x = x
	l.size(n)
	inSize := l.c * l.h * l.w
	outSize := l.c * l.oh * l.ow
	for s := 0; s < n; s++ {
		l.pool(x.Data[s*inSize:(s+1)*inSize], l.y.Data[s*outSize:(s+1)*outSize], l.arg[s*outSize:(s+1)*outSize])
	}
	return l.y
}

// pool max-pools one sample's map z into y, a window's first maximum
// winning. A window with no value above -Inf (all NaN or -Inf) routes
// its gradient to its own first element.
//
//fedtripvet:hotpath
func (l *maxPoolLayer) pool(z, y []float64, arg []uint8) {
	o := 0
	for c := 0; c < l.c; c++ {
		base := c * l.h * l.w
		for oy := 0; oy < l.oh; oy++ {
			for ox := 0; ox < l.ow; ox++ {
				best, bestOff := math.Inf(-1), 0
				off := 0
				for ky := 0; ky < l.k; ky++ {
					for _, v := range z[base+(oy*l.k+ky)*l.w+ox*l.k:][:l.k] {
						if v > best {
							best, bestOff = v, off
						}
						off++
					}
				}
				y[o] = best
				arg[o] = uint8(bestOff + 1)
				o++
			}
		}
	}
}

// unpool writes one sample's input gradient into dz: zero, plus dy[o]
// where output o routes it.
//
//fedtripvet:hotpath
func (l *maxPoolLayer) unpool(dz, dy []float64, arg []uint8) {
	clear(dz)
	o := 0
	for c := 0; c < l.c; c++ {
		base := c * l.h * l.w
		for oy := 0; oy < l.oh; oy++ {
			for ox := 0; ox < l.ow; ox++ {
				if a := int(arg[o]); a != 0 {
					ky, kx := (a-1)/l.k, (a-1)%l.k
					dz[base+(oy*l.k+ky)*l.w+ox*l.k+kx] += dy[o]
				}
				o++
			}
		}
	}
}

// Backward writes the input gradient sample by sample. It reads only the
// routing bytes, so it may write into its input.
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
	inSize := l.c * l.h * l.w
	outSize := l.c * l.oh * l.ow
	for s := 0; s < n; s++ {
		l.unpool(l.dx.Data[s*inSize:(s+1)*inSize], dy.Data[s*outSize:(s+1)*outSize], l.arg[s*outSize:(s+1)*outSize])
	}
	return l.dx
}

func (l *maxPoolLayer) FwdFLOPs() float64 {
	return float64(l.c * l.oh * l.ow * l.k * l.k)
}

// convPoolLayer is a convolution, the ReLU after it and the max-pool after
// that, run as one layer: Build fuses every Conv2D → ReLU → MaxPool2D run
// into one, so the batch's convolution output is never held. Sample by
// sample, the forward pass computes the convolution (im2col, GEMM, bias)
// into one per-sample buffer, then rectifies and pools it into the
// pool's output and routing bytes: a window whose maximum is not above 0,
// where the ReLU's mask is 0, routes no gradient. The backward pass
// rebuilds a sample's convolution output gradient in the same buffer —
// zeroed, then dy added where each window routes it, as the max-pool
// adds into a zeroed window — and runs the convolution's backward on it,
// sample after sample as the convolution does. Logits and every gradient
// bit are the three layers'.
type convPoolLayer struct {
	conv *convLayer    // placed as the layer; holds its input, input gradient and scratch
	pool *maxPoolLayer // holds its output and routing bytes
	buf  []float64     // one sample's convolution output, then its gradient
}

// fuse returns layers with every Conv2D → ReLU → MaxPool2D run replaced
// by one convPoolLayer: layers itself, with no allocation, when there is
// none.
func fuse(layers []Layer) []Layer {
	var out []Layer
	for i := 0; i < len(layers); i++ {
		if i+2 < len(layers) {
			c, conv := layers[i].(*convLayer)
			_, relu := layers[i+1].(*reluLayer)
			p, pool := layers[i+2].(*maxPoolLayer)
			if conv && relu && pool {
				if out == nil {
					out = append(make([]Layer, 0, len(layers)), layers[:i]...)
				}
				out = append(out, &convPoolLayer{conv: c, pool: p})
				i += 2
				continue
			}
		}
		if out != nil {
			out = append(out, layers[i])
		}
	}
	if out == nil {
		return layers
	}
	return out
}

func (l *convPoolLayer) Name() string { return "conv2d+relu+maxpool2d" }

func (l *convPoolLayer) Resolve(in []int) ([]int, error) {
	out, err := l.conv.Resolve(in)
	if err != nil {
		return nil, err
	}
	return l.pool.Resolve(out)
}

func (l *convPoolLayer) ParamCount() int { return l.conv.ParamCount() }

func (l *convPoolLayer) Bind(params, grads []float64, rng *prng.Rand) {
	l.conv.Bind(params, grads, rng)
}

// place places the layer's convolution, which holds its buffers.
func (l *convPoolLayer) place(q placement) { l.conv.placement = q }

//fedtripvet:hotpath
func (l *convPoolLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	c, p := l.conv, l.pool
	c.x = x
	p.size(n)
	if l.buf == nil {
		l.buf = make([]float64, p.c*p.h*p.w) //fedtripvet:allow once per layer
	}
	outSize := p.c * p.oh * p.ow
	cs := c.getScratch()
	for s := 0; s < n; s++ {
		c.forwardSample(cs, c.sample(x, s), l.buf)
		l.rectifyPool(l.buf, p.y.Data[s*outSize:(s+1)*outSize], p.arg[s*outSize:(s+1)*outSize])
	}
	return p.y
}

// rectifyPool rectifies one sample's convolution output z in place, as
// the ReLU does (+0 wherever z is not above 0, NaN included), and pools
// it into y. A window whose maximum is 0 routes no gradient: the ReLU's
// mask is 0 there.
//
//fedtripvet:hotpath
func (l *convPoolLayer) rectifyPool(z, y []float64, arg []uint8) {
	for i, v := range z {
		if !(v > 0) {
			z[i] = 0
		}
	}
	l.pool.pool(z, y, arg)
	for o, v := range y {
		if !(v > 0) {
			arg[o] = 0
		}
	}
}

// Backward rebuilds each sample's convolution output gradient and runs
// the convolution's backward on it, sample after sample.
//
//fedtripvet:hotpath
func (l *convPoolLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Dim(0)
	c, p := l.conv, l.pool
	outSize := p.c * p.oh * p.ow
	cs := c.beginBackward(n)
	for s := 0; s < n; s++ {
		p.unpool(l.buf, dy.Data[s*outSize:(s+1)*outSize], p.arg[s*outSize:(s+1)*outSize])
		c.backwardSample(cs, c.sample(c.x, s), l.buf, c.sample(c.dx, s))
	}
	c.endBackward(cs)
	return c.dx
}

// FwdFLOPs is the three layers' sum.
func (l *convPoolLayer) FwdFLOPs() float64 {
	p := l.pool
	return l.conv.FwdFLOPs() + float64(p.c*p.h*p.w) + p.FwdFLOPs()
}
