// Package tensor implements the dense numerical substrate for the library:
// row-major float64 tensors, cache-blocked matrix kernels, image layout
// transforms (im2col/col2im) for convolution, and flat-vector BLAS-1 style
// operations used by the federated-learning layer (aggregation,
// regularization, optimizers).
//
// The package is deliberately free of any FL or neural-network concepts so
// it can be tested purely against math. Its kernels run on the calling
// goroutine: the caller decides the parallelism.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 tensor. Data may be shared between
// tensors (views); Reshape returns a view, Clone copies.
type Tensor struct {
	Data  []float64
	shape []int
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor view with the given shape. The slice is
// not copied; len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Reshape returns a view of the same data with a new shape. The element
// count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// SetDim0 resizes the leading dimension to n in place, reusing the
// existing backing array when its capacity suffices (growing reallocates).
// Element contents after a resize are unspecified — callers are expected
// to overwrite the tensor fully, which is why the batch-sized scratch
// buffers of the nn layers can ride through tail batches without
// reallocating. Must not be used on views that share Data with a tensor
// the caller still reads.
func (t *Tensor) SetDim0(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("tensor: SetDim0 size %d", n))
	}
	row := 1
	for _, d := range t.shape[1:] {
		row *= d
	}
	need := n * row
	if cap(t.Data) >= need {
		t.Data = t.Data[:need]
	} else {
		t.Data = make([]float64, need)
	}
	t.shape[0] = n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given indices (rank must match).
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, t.shape[i]))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// RandNormal fills the tensor with N(0, std^2) samples from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) { //fedtripvet:allow rng is caller-supplied; runtime callers derive it from a registered stream
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// RandUniform fills the tensor with U(lo, hi) samples from rng.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) { //fedtripvet:allow rng is caller-supplied; runtime callers derive it from a registered stream
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// MaxAbs returns the largest absolute value in the tensor (0 for empty).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
