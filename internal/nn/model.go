package nn

import (
	"fmt"

	"repro/internal/flops"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// Builder assembles a Model layer by layer. Methods are chainable; errors
// are deferred to Build so construction code stays linear.
type Builder struct {
	inShape []int
	layers  []Layer
	err     error
}

// NewBuilder starts a model whose per-sample input shape is inShape
// (e.g. 784 for a flat vector, or 1, 28, 28 for CHW images).
func NewBuilder(inShape ...int) *Builder {
	b := &Builder{inShape: append([]int(nil), inShape...)}
	if len(inShape) == 0 {
		b.fail(fmt.Errorf("nn: empty input shape"))
	}
	for _, d := range inShape {
		if d <= 0 {
			b.fail(fmt.Errorf("nn: non-positive input dim in %v", inShape))
		}
	}
	return b
}

func (b *Builder) add(l Layer) {
	b.layers = append(b.layers, l)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build fuses every Conv2D → ReLU → MaxPool2D run into one layer (fuse),
// resolves shapes, allocates the flat parameter and gradient vectors,
// binds every layer, initialises weights deterministically from seed, and
// places every layer: which activation and gradient buffers it may write
// in place follows from its position alone.
func (b *Builder) Build(seed int64) (*Model, error) { return b.build(seed, true) }

// build is Build, without the gradient vector unless grads.
func (b *Builder) build(seed int64, grads bool) (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.layers) == 0 {
		return nil, fmt.Errorf("nn: model has no layers")
	}
	return assemble(b.inShape, fuse(b.layers), seed, grads)
}

// assemble builds the model of layers over per-sample inputs of inShape,
// with a gradient vector when grads.
func assemble(inShape []int, layers []Layer, seed int64, grads bool) (*Model, error) {
	shape := inShape
	var total int
	var fwd float64
	featureDim := numel(shape)
	for i, l := range layers {
		if i == len(layers)-1 {
			featureDim = numel(shape)
		}
		out, err := l.Resolve(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		total += l.ParamCount()
		fwd += l.FwdFLOPs()
		shape = out
	}
	if len(shape) != 1 {
		return nil, fmt.Errorf("nn: model output shape %v is not flat (missing Flatten/Dense head?)", shape)
	}
	m := &Model{
		layers:     layers,
		inShape:    append([]int(nil), inShape...),
		outDim:     shape[0],
		featureDim: featureDim,
		params:     make([]float64, total),
		rng:        prng.New(seed),
		fwdFLOPs:   fwd,
	}
	if grads {
		m.grads = make([]float64, total)
	}
	off := 0
	for _, l := range layers {
		n := l.ParamCount()
		var g []float64
		if grads {
			g = m.grads[off : off+n]
		}
		l.Bind(m.params[off:off+n], g, m.rng)
		off += n
		if d, ok := l.(*dropoutLayer); ok {
			m.dropouts = append(m.dropouts, d)
		}
	}
	place(layers)
	return m, nil
}

// Model is a feed-forward network with all parameters in one flat vector.
// A Model is NOT safe for concurrent use: each federated client owns its
// own instances.
type Model struct {
	layers     []Layer
	inShape    []int
	outDim     int
	featureDim int
	params     []float64
	grads      []float64
	rng        *prng.Rand
	dropouts   []*dropoutLayer
	fwdFLOPs   float64
	counter    *flops.Counter
	features   *tensor.Tensor // input to the final layer, cached by Forward
}

// Params returns the live flat parameter vector. Mutating it mutates the
// model (this is how optimizers and FL aggregation work).
func (m *Model) Params() []float64 { return m.params }

// Grads returns the live flat gradient vector.
func (m *Model) Grads() []float64 { return m.grads }

// NumParams returns |w|.
func (m *Model) NumParams() int { return len(m.params) }

// OutDim returns the classifier width (number of classes).
func (m *Model) OutDim() int { return m.outDim }

// InShape returns the per-sample input shape.
func (m *Model) InShape() []int { return m.inShape }

// ZeroGrad clears the gradient vector.
func (m *Model) ZeroGrad() { tensor.ZeroVec(m.grads) }

// SetParams copies src into the model's parameters.
func (m *Model) SetParams(src []float64) {
	tensor.CopyInto(m.params, src)
}

// ParamsCopy returns a fresh copy of the parameter vector.
func (m *Model) ParamsCopy() []float64 {
	c := make([]float64, len(m.params))
	copy(c, m.params)
	return c
}

// SetMaskRNG makes the model's dropout layers draw their training-mode
// masks from rng in place of the stream Build seeded. A model shared
// between owners (a worker shard's engine trains whichever client it is
// handed) calls it with the owner's stream before training, so a mask
// follows the owner and not the model instance. Evaluation-mode forwards
// draw nothing.
func (m *Model) SetMaskRNG(rng *prng.Rand) {
	for _, d := range m.dropouts {
		d.rng = rng
	}
}

// SetCounter installs a FLOP counter; nil disables metering.
func (m *Model) SetCounter(c *flops.Counter) { m.counter = c }

// Cost returns the analytic per-sample cost (Table III row).
func (m *Model) Cost() flops.ModelCost {
	return flops.ModelCost{
		Params:   len(m.params),
		Forward:  m.fwdFLOPs,
		Backward: 2 * m.fwdFLOPs,
	}
}

// Forward runs the network on a batch x of shape [N, inShape...] and
// returns the logits [N, classes]. The representation (input to the final
// layer) is cached and available via Features until the next Forward.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(0) <= 0 {
		panic("nn: empty batch")
	}
	h := x
	for i, l := range m.layers {
		if i == len(m.layers)-1 {
			m.features = h
		}
		h = l.Forward(h, train)
	}
	m.counter.Add(m.forwardFLOPs(x.Dim(0)))
	return h
}

// forwardFLOPs and backwardFLOPs are what Forward and Backward meter for
// a batch of n samples.
func (m *Model) forwardFLOPs(n int) int64  { return int64(float64(n) * m.fwdFLOPs) }
func (m *Model) backwardFLOPs(n int) int64 { return int64(float64(n) * 2 * m.fwdFLOPs) }

// TrainFLOPs is what one training step on a batch of n samples meters —
// its Forward and its Backward — bit for bit, known before the step runs.
func (m *Model) TrainFLOPs(n int) int64 { return m.forwardFLOPs(n) + m.backwardFLOPs(n) }

// HeldBytes sums, from capacities, what m's layers hold beyond the
// parameter and gradient vectors. activations are the buffers a layer
// keeps from one pass to the next — outputs, input gradients, max-pool
// routing bytes, a fused layer's per-sample convolution output, dropout
// masks — each backing array once (an in-place ReLU's output is the
// array of the layer before it, an input gradient written in place the
// input's). scratch is the convolutions' working storage: the im2col and
// col2im matrices and the batch's parameter gradient. The caller's batch
// and logit gradient are the caller's, and the process's GEMM packing
// buffers no model's.
func (m *Model) HeldBytes() (activations, scratch int64) {
	seen := map[*float64]bool{}
	f64 := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			if t == nil || cap(t.Data) == 0 || seen[&t.Data[:1][0]] {
				continue
			}
			seen[&t.Data[:1][0]] = true
			activations += 8 * int64(cap(t.Data))
		}
	}
	for _, l := range m.layers {
		switch l := l.(type) {
		case *denseLayer:
			f64(l.y, l.dx)
		case *convLayer:
			f64(l.y, l.dx)
			scratch += l.scratch.bytes()
		case *maxPoolLayer:
			f64(l.y, l.dx)
			activations += int64(cap(l.arg))
		case *convPoolLayer:
			f64(l.pool.y, l.conv.dx)
			activations += 8*int64(cap(l.buf)) + int64(cap(l.pool.arg))
			scratch += l.conv.scratch.bytes()
		case *reluLayer:
			f64(l.y, l.dx)
		case *dropoutLayer:
			f64(l.y, l.dx)
			activations += int64(cap(l.keep))
		}
	}
	return activations, scratch
}

// Features returns the representation cached by the last Forward call:
// the input to the model's final layer. MOON's model-contrastive loss is
// computed on these vectors. The returned tensor is shaped [N, D].
func (m *Model) Features() *tensor.Tensor {
	if m.features == nil {
		panic("nn: Features called before Forward")
	}
	f := m.features
	n := f.Dim(0)
	return f.Reshape(n, f.Numel()/n)
}

// FeatureDim returns the width of the representation Features returns
// (the final layer's per-sample input size).
func (m *Model) FeatureDim() int { return m.featureDim }

// Backward backpropagates dLogits [N, classes] through the network,
// accumulating into Grads. If extraFeatureGrad is non-nil it is added to
// the gradient flowing into the representation (the final layer's input);
// this is the hook MOON uses to inject the model-contrastive term without
// an autograd system (a one-layer model's representation is the batch
// itself, whose gradient is not computed). Callers must ZeroGrad first if
// they want fresh gradients. A ReLU reads its mask from its own output, so
// a caller must not write the logits of a model that ends in one before
// Backward. Backward writes input gradients into the activations they
// replace, so each Backward needs a Forward of its own; the logits and
// Features are left as they were.
func (m *Model) Backward(dLogits *tensor.Tensor, extraFeatureGrad *tensor.Tensor) {
	last := len(m.layers) - 1
	g := m.layers[last].Backward(dLogits)
	if extraFeatureGrad != nil && last > 0 {
		if g.Numel() != extraFeatureGrad.Numel() {
			panic(fmt.Sprintf("nn: extra feature grad %v incompatible with %v", extraFeatureGrad.Shape(), g.Shape()))
		}
		tensor.Axpy(1, extraFeatureGrad.Data, g.Data)
	}
	for i := last - 1; i >= 0; i-- {
		g = m.layers[i].Backward(g)
	}
	m.counter.Add(m.backwardFLOPs(dLogits.Dim(0)))
}
