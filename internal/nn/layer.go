// Package nn implements the neural-network substrate: layers with manual
// backpropagation, models assembled by a builder, and the three
// architectures the paper evaluates (MLP, LeNet5-style CNN, AlexNet-style
// conv net).
//
// Design: every parameter of a model lives in ONE flat []float64, and every
// gradient in a parallel flat []float64. Layers receive subslice views at
// build time. The federated-learning layer then treats models as plain
// vectors — aggregation (Eq. 2 of the paper), the FedProx/FedTrip/FedDyn
// gradient transforms, and the optimizers are all BLAS-1 kernels over these
// vectors, exactly matching the paper's O(|w|) attaching-cost analysis.
package nn

import (
	"slices"

	"repro/internal/prng"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a model. Layers are created through
// the Builder, which resolves shapes, binds parameter storage and places
// the layer (see placement); they are stateful (they cache forward
// activations for the backward pass) and therefore belong to exactly one
// Model.
type Layer interface {
	// Name identifies the layer kind for diagnostics ("dense", "conv2d"...).
	Name() string
	// Resolve fixes the per-sample input shape, returning the per-sample
	// output shape or an error if the input is incompatible.
	Resolve(in []int) (out []int, err error)
	// ParamCount reports the number of scalar parameters (valid after
	// Resolve).
	ParamCount() int
	// Bind hands the layer its parameter and gradient storage (subslices
	// of the model's flat vectors; grads is nil on a model built for
	// forward passes only) and initialises the parameters.
	Bind(params, grads []float64, rng *prng.Rand)
	// Forward computes the layer output for a batch x of shape
	// [N, inShape...]. train enables training-only behaviour (dropout).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward receives dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients into the bound gradient slice. The model's first
	// layer returns nil: nothing reads the gradient of the caller's batch.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// FwdFLOPs is the analytic per-sample forward cost (FLOPs), valid
	// after Resolve. Backward cost is modelled as 2x forward, the standard
	// approximation the paper also uses.
	FwdFLOPs() float64
}

// placement is what Build decides about a layer's buffers from its
// position in the model, once and with no option. Every layer embeds it.
type placement struct {
	// first: the layer's input is the caller's batch. Its gradient is
	// discarded, so Backward neither allocates nor computes it.
	first bool
	// ownInput: the input is an activation an earlier layer of the model
	// allocated — not the caller's batch, nor a flatten or dropout passing
	// that batch through — and the layer is not the last, whose input
	// Features returns. No backward pass reads that activation's values
	// (dense and conv keep their input, pooling its routing bytes, and a
	// second rectification leaves a ReLU's output as it was), so a ReLU
	// rectifies it in place.
	ownInput bool
	// ownGrad: the incoming gradient is a buffer a later layer of the
	// model allocated — not the caller's dLogits, nor a flatten or dropout
	// passing it through. A ReLU zeroes it in place.
	ownGrad bool
	// gradInInput: a conv, dense, max-pool or fused conv block between
	// the first and the last writes its input gradient into its input's
	// storage and returns the input tensor. The input is a buffer another
	// such layer allocated (looking through flattens, which are views, but
	// not through a dropout, which at evaluation passes the caller's
	// batch), and none of them reads its own output backward, so no later
	// backward step reads the buffer. Backward reads the input before
	// overwriting it: dense's dW GEMM precedes its dx GEMM, a
	// convolution's (fused or not) im2col of a sample that sample's
	// col2im, and max-pool reads only its routing bytes.
	gradInInput bool
}

func (p *placement) place(q placement) { *p = q }

// placed is implemented by every layer, through the embedded placement.
type placed interface{ place(placement) }

// place decides every layer's placement. An activation or a gradient is
// the model's own once any layer other than a flatten or a dropout (the
// identity at evaluation) has produced it.
func place(layers []Layer) {
	produces := func(l Layer) bool {
		switch l.(type) {
		case *flattenLayer, *dropoutLayer:
			return false
		}
		return true
	}
	// writer: a layer that allocates its output and never reads it in
	// backward.
	writer := func(l Layer) bool {
		switch l.(type) {
		case *convLayer, *denseLayer, *maxPoolLayer, *convPoolLayer:
			return true
		}
		return false
	}
	last := len(layers) - 1
	ps := make([]placement, len(layers))
	for i := range layers {
		ps[i] = placement{
			first:    i == 0,
			ownInput: i < last && slices.ContainsFunc(layers[:i], produces),
			ownGrad:  slices.ContainsFunc(layers[i+1:], produces),
		}
	}
	for i := 1; i < last; i++ {
		if !writer(layers[i]) {
			continue
		}
		j := i - 1 // the layer that made the input, through flattens
		for j >= 0 {
			if _, ok := layers[j].(*flattenLayer); !ok {
				break
			}
			j--
		}
		if j >= 0 && writer(layers[j]) {
			ps[i].gradInInput = true
		}
	}
	for i, l := range layers {
		l.(placed).place(ps[i])
	}
}

// prependBatch builds a full batch shape [n, per-sample dims...].
func prependBatch(n int, per []int) []int {
	s := make([]int, 0, len(per)+1)
	s = append(s, n)
	return append(s, per...)
}

// numel multiplies the dims of a per-sample shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
