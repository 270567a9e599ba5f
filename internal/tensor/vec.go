package tensor

import "math"

// Flat-vector (BLAS-1 style) operations over []float64. These back the
// FL-level math: model aggregation, the FedProx/FedTrip/FedDyn gradient
// transforms, and the optimizers. All functions require equal lengths and
// panic otherwise — a length mismatch at this level is always a programming
// error in model plumbing, never a data condition.

func checkLen(n int, xs ...[]float64) {
	for _, x := range xs {
		if len(x) != n {
			panic("tensor: vector length mismatch")
		}
	}
}

// Axpy computes y += alpha * x.
func Axpy(alpha float64, x, y []float64) {
	checkLen(len(y), x)
	axpyKernel(y, x, alpha)
}

// Scale computes x *= alpha.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns x . y.
func Dot(x, y []float64) float64 {
	checkLen(len(x), y)
	if len(x) == 0 {
		return 0
	}
	return dotKernel(x, y)
}

// SumSq returns ||x||^2.
func SumSq(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return dotKernel(x, x)
}

// Norm2 returns ||x||.
func Norm2(x []float64) float64 { return math.Sqrt(SumSq(x)) }

// SubInto computes dst = a - b.
func SubInto(dst, a, b []float64) {
	checkLen(len(dst), a, b)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AddInto computes dst = a + b.
func AddInto(dst, a, b []float64) {
	checkLen(len(dst), a, b)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// CopyInto copies src into dst.
func CopyInto(dst, src []float64) {
	checkLen(len(dst), src)
	copy(dst, src)
}

// ZeroVec sets every element to 0.
func ZeroVec(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// WeightedSumInto computes dst = sum_i weights[i] * vecs[i]. It is the
// server aggregation kernel (Eq. 2 of the paper). Weights need not sum to
// one here; the caller normalises.
func WeightedSumInto(dst []float64, weights []float64, vecs [][]float64) {
	if len(weights) != len(vecs) {
		panic("tensor: weights/vectors count mismatch")
	}
	ZeroVec(dst)
	for i, v := range vecs {
		checkLen(len(dst), v)
		if weights[i] == 0 {
			continue
		}
		axpyKernel(dst, v, weights[i])
	}
}

// DistSq returns ||a - b||^2 without allocating.
func DistSq(a, b []float64) float64 {
	checkLen(len(a), b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// MaxAbsDiff returns max_i |a[i]-b[i]|, used by tests for approximate
// equality of parameter vectors.
func MaxAbsDiff(a, b []float64) float64 {
	checkLen(len(a), b)
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// AllFinite reports whether every element is a finite number. The FL core
// uses it for failure injection tests and divergence detection.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
