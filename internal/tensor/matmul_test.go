package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation all kernels are checked
// against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 1)
	return t
}

// gemmShapes exercises every routing decision of the blocked GEMM: the
// degenerate m/n/k = 1 fast paths, the small-m direct-B path, tiles with
// row/column remainders (non-multiples of the 4x4 micro-tile), shapes
// that straddle one k/n block boundary, and the conv/dense shapes the
// paper's models actually produce.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {1, 1, 9}, {7, 1, 1},
	{2, 3, 4}, {5, 1, 7}, {3, 128, 2}, {17, 23, 9},
	{4, 4, 4}, {5, 5, 5}, {8, 8, 8}, {64, 31, 64},
	{6, 25, 31}, {16, 150, 10}, {33, 400, 1}, {50, 120, 84},
	{65, 257, 19}, {40, 300, 5}, {34, 12, 34},
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		c := New(m, n)
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMul %v: max diff %v", dims, d)
		}
	}
}

// TestMatMulDeterministic pins the kernel's fixed accumulation order: the
// same inputs must produce bitwise-identical outputs on every run (the
// trajectory-reproducibility contract of the FL runtimes rests on this).
func TestMatMulDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		c1, c2 := New(m, n), New(m, n)
		MatMul(c1, a, b)
		MatMul(c2, a, b)
		for i := range c1.Data {
			if c1.Data[i] != c2.Data[i] {
				t.Fatalf("MatMul %v: element %d differs between runs: %v vs %v", dims, i, c1.Data[i], c2.Data[i])
			}
		}
	}
}

// TestMatMulSteadyStateAllocFree pins the scratch pooling: after warm-up,
// the kernels must not allocate.
func TestMatMulSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in the non-race job")
	}
	rng := rand.New(rand.NewSource(13))
	a, b := randTensor(rng, 40, 57), randTensor(rng, 57, 33)
	c := New(40, 33)
	MatMul(c, a, b) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		MatMul(c, a, b)
	})
	if allocs > 0 {
		t.Fatalf("MatMul allocates %v objects per call in steady state", allocs)
	}
}

func TestMatMulOverwritesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randTensor(rng, 3, 4), randTensor(rng, 4, 5)
	c := New(3, 5)
	c.Fill(99) // stale values must be overwritten, not accumulated
	MatMul(c, a, b)
	want := naiveMatMul(a, b)
	if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
		t.Fatalf("stale output leaked: %v", d)
	}
}

func TestMatMulAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// {40,57,33} and up exercise the tiled path's bias init
	// (m > gemmSmallM), not just the small-m direct path.
	for _, dims := range [][3]int{{6, 3, 4}, {1, 5, 3}, {10, 784, 100}, {40, 57, 33}, {65, 257, 19}, {200, 30, 10}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		c := New(m, n)
		MatMulAddBias(c, a, b, bias)
		want := naiveMatMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want.Data[i*n+j] += bias[j]
			}
		}
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMulAddBias %v: max diff %v", dims, d)
		}
	}
}

// denseShapes are the (in, out) shapes of the dense layers of the MLP and
// the CNN at scale 1, 0.5 and 0.25 and of AlexNet at 0.25, plus LeNet-5's
// 400x120 and a 1024x128 classifier.
var denseShapes = [][2]int{
	{784, 100}, {784, 50}, {784, 25}, {100, 10}, {50, 10}, {25, 10},
	{400, 120}, {120, 84}, {84, 10}, {60, 42}, {42, 10}, {30, 21}, {21, 10},
	{1024, 128}, {1024, 32}, {128, 10}, {32, 10},
}

// TestMatMulAddBiasRowsIndependentOfRowCount: every output row of a dense
// forward is bitwise the same whatever the number of rows in the call, so
// a model forwarded in chunks produces the logits one wide batch does. The
// kernel routes m = 1, m <= gemmSmallM and larger m through different
// paths; each accumulates bias + x_0 w_0 + x_1 w_1 + ... in k order.
func TestMatMulAddBiasRowsIndependentOfRowCount(t *testing.T) {
	const rows = 200
	for si, s := range denseShapes {
		k, n := s[0], s[1]
		t.Run(fmt.Sprintf("%dx%d", k, n), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(31 + si)))
			a, b := randTensor(rng, rows, k), randTensor(rng, k, n)
			bias := make([]float64, n)
			for j := range bias {
				bias[j] = rng.NormFloat64()
			}
			full := New(rows, n)
			MatMulAddBias(full, a, b, bias)
			c := New(rows, n)
			for m := 1; m < rows; m++ {
				c.SetDim0(m)
				MatMulAddBias(c, FromSlice(a.Data[:m*k], m, k), b, bias)
				for i, v := range c.Data {
					if math.Float64bits(v) != math.Float64bits(full.Data[i]) {
						t.Fatalf("m=%d: row %d col %d is %v, %v in the %d-row call",
							m, i/n, i%n, v, full.Data[i], rows)
					}
				}
			}
		})
	}
}

func TestMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, k), randTensor(rng, m, n)
		c := New(k, n)
		c.Fill(5)
		MatMulATB(c, a, b)
		// Reference: transpose A explicitly.
		at := New(k, m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at.Data[p*m+i] = a.Data[i*k+p]
			}
		}
		want := naiveMatMul(at, b)
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMulATB %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulATBAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, k), randTensor(rng, m, n)
		c := randTensor(rng, k, n)
		base := c.Clone()
		MatMulATBAdd(c, a, b)
		at := New(k, m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at.Data[p*m+i] = a.Data[i*k+p]
			}
		}
		want := naiveMatMul(at, b)
		AddInto(want.Data, want.Data, base.Data)
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMulATBAdd %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range gemmShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, n), randTensor(rng, k, n)
		c := New(m, k)
		c.Fill(-3)
		MatMulABT(c, a, b)
		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Data[j*k+i] = b.Data[i*n+j]
			}
		}
		want := naiveMatMul(a, bt)
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMulABT %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulABTAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range gemmShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := randTensor(rng, m, n), randTensor(rng, k, n)
		c := randTensor(rng, m, k)
		base := c.Clone()
		MatMulABTAdd(c, a, b)
		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Data[j*k+i] = b.Data[i*n+j]
			}
		}
		want := naiveMatMul(a, bt)
		AddInto(want.Data, want.Data, base.Data)
		if d := MaxAbsDiff(c.Data, want.Data); d > 1e-10 {
			t.Fatalf("MatMulABTAdd %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestMatMulRankPanics(t *testing.T) {
	defer expectPanic(t, "rank")
	MatMul(New(2, 2), New(4), New(2, 2))
}

// Property: the blocked kernel agrees with the naive triple loop on
// random shapes, including shapes larger than one micro-tile and shapes
// that hit every remainder path.
func TestMatMulMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(50), 1+r.Intn(50), 1+r.Intn(50)
		a, b := randTensor(r, m, k), randTensor(r, k, n)
		c := New(m, n)
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		return MaxAbsDiff(c.Data, want.Data) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randTensor(rng, m, k)
		b1, b2 := randTensor(rng, k, n), randTensor(rng, k, n)
		sum := New(k, n)
		AddInto(sum.Data, b1.Data, b2.Data)
		left := New(m, n)
		MatMul(left, a, sum)
		r1, r2 := New(m, n), New(m, n)
		MatMul(r1, a, b1)
		MatMul(r2, a, b2)
		right := New(m, n)
		AddInto(right.Data, r1.Data, r2.Data)
		return MaxAbsDiff(left.Data, right.Data) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randTensor(rng, 128, 128), randTensor(rng, 128, 128)
	c := New(128, 128)
	b.SetBytes(128 * 128 * 128 * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y)
	}
}

// BenchmarkGEMMConvShape measures the im2col matmul of the paper CNN's
// second conv layer (W[16,150] x col[150,100]) — a small-m direct-B
// shape.
func BenchmarkGEMMConvShape(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w, col := randTensor(rng, 16, 150), randTensor(rng, 150, 100)
	c := New(16, 100)
	b.SetBytes(16 * 150 * 100 * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, w, col)
	}
}

// BenchmarkGEMMDenseBackward measures the dense weight-gradient kernel at
// MLP scale (dW = X^T dY with X[10,784], dY[10,100]) — a large-m, tiny-k
// accumulating shape.
func BenchmarkGEMMDenseBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, dy := randTensor(rng, 10, 784), randTensor(rng, 10, 100)
	c := New(784, 100)
	b.SetBytes(784 * 100 * 10 * 2 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATBAdd(c, x, dy)
	}
}
