package quantize

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 1000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for _, bits := range []int{1, 2, 4, 8, 12, 16} {
		q, err := Quantize(v, bits)
		if err != nil {
			t.Fatal(err)
		}
		got := q.Dequantize()
		maxErr := q.MaxError()
		for i := range v {
			if e := math.Abs(got[i] - v[i]); e > maxErr+1e-12 {
				t.Fatalf("bits=%d elem %d err %v > bound %v", bits, i, e, maxErr)
			}
		}
	}
}

func TestQuantizeHigherBitsSmallerError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 500)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 4, 8, 12} {
		q, _ := Quantize(v, bits)
		if e := q.MaxError(); e >= prev {
			t.Fatalf("bits=%d error %v not smaller than %v", bits, e, prev)
		} else {
			prev = e
		}
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	// Constant vector reconstructs exactly.
	q, err := Quantize([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range q.Dequantize() {
		if x != 3 {
			t.Fatalf("constant vector broke: %v", x)
		}
	}
	// Empty vector.
	q0, err := Quantize(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(q0.Dequantize()) != 0 {
		t.Fatal("empty dequantize")
	}
	// Errors.
	if _, err := Quantize([]float64{1}, 0); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := Quantize([]float64{1}, 17); err == nil {
		t.Fatal("17 bits accepted")
	}
	if _, err := Quantize([]float64{math.NaN()}, 8); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := Quantize([]float64{math.Inf(1)}, 8); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestQuantizeWireSize(t *testing.T) {
	v := make([]float64, 1000)
	q8, _ := Quantize(v, 8)
	q4, _ := Quantize(v, 4)
	if q8.WireSize() != 25+1000 {
		t.Fatalf("8-bit wire size %d", q8.WireSize())
	}
	if q4.WireSize() != 25+500 {
		t.Fatalf("4-bit wire size %d", q4.WireSize())
	}
}

// Property: quantization error bound holds for arbitrary vectors and bit
// widths.
func TestQuantizeBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		bits := 1 + rng.Intn(12)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
		}
		q, err := Quantize(v, bits)
		if err != nil {
			return false
		}
		got := q.Dequantize()
		bound := q.MaxError() + 1e-9*(math.Abs(q.Max)+math.Abs(q.Min))
		for i := range v {
			if math.Abs(got[i]-v[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKSelectsLargest(t *testing.T) {
	v := []float64{0.1, -5, 2, 0, 3, -0.2}
	s, err := TopK(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Indices) != 3 {
		t.Fatalf("kept %d", len(s.Indices))
	}
	kept := map[int32]bool{}
	for _, idx := range s.Indices {
		kept[idx] = true
	}
	if !kept[1] || !kept[4] || !kept[2] {
		t.Fatalf("wrong selection: %v", s.Indices)
	}
	dst := make([]float64, len(v))
	if err := s.DenseInto(dst); err != nil {
		t.Fatal(err)
	}
	if dst[1] != -5 || dst[4] != 3 || dst[2] != 2 || dst[0] != 0 {
		t.Fatalf("dense: %v", dst)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if _, err := TopK([]float64{1}, 2); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := TopK([]float64{1}, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	s, err := TopK([]float64{1, 2}, 0)
	if err != nil || len(s.Indices) != 0 {
		t.Fatal("k=0")
	}
	// Ties at the threshold must still return exactly k entries.
	s2, err := TopK([]float64{1, 1, 1, 1}, 2)
	if err != nil || len(s2.Indices) != 2 {
		t.Fatalf("tie handling: %v", s2)
	}
	if err := s2.DenseInto(make([]float64, 3)); err == nil {
		t.Fatal("bad dense target accepted")
	}
}

// Property: top-k keeps exactly k entries and they are the k largest by
// magnitude.
func TestTopKProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := rng.Intn(n + 1)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		s, err := TopK(v, k)
		if err != nil || len(s.Indices) != k {
			return false
		}
		// The smallest kept magnitude must be >= the largest dropped one
		// (up to ties).
		mags := make([]float64, n)
		for i, x := range v {
			mags[i] = math.Abs(x)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
		if k == 0 || k == n {
			return true
		}
		minKept := math.Inf(1)
		for _, idx := range s.Indices {
			if m := math.Abs(v[idx]); m < minKept {
				minKept = m
			}
		}
		return minKept >= mags[k]-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Oracle: SelectDesc returns what a full descending sort puts at
// index k-1, for every k, on NaN-free columns with and without ties, and
// only permutes the column it is given.
func TestQuickselectDescMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		col := make([]float64, n)
		grid := rng.Intn(2) == 0 // a coarse grid forces ties
		for i := range col {
			if grid {
				col[i] = float64(rng.Intn(5))
			} else {
				col[i] = rng.NormFloat64()
			}
		}
		want := slices.Clone(col)
		slices.Sort(want)
		slices.Reverse(want)
		for k := 1; k <= n; k++ {
			xs := slices.Clone(col)
			if got := SelectDesc(xs, k); got != want[k-1] {
				t.Logf("n=%d k=%d: got %v, sorted %v", n, k, got, want)
				return false
			}
			slices.Sort(xs)
			slices.Reverse(xs)
			if !slices.Equal(xs, want) {
				t.Logf("n=%d k=%d: the column is no longer a permutation of its input", n, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseWireSize(t *testing.T) {
	s, _ := TopK(make([]float64, 100), 0)
	if s.WireSize() != 8 {
		t.Fatalf("empty wire %d", s.WireSize())
	}
}

func TestRandK(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	s, err := RandK(v, 20, prng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Indices) != 20 || len(s.Values) != 20 {
		t.Fatalf("rand-k kept %d/%d entries, want 20", len(s.Indices), len(s.Values))
	}
	seen := map[int32]bool{}
	for i, idx := range s.Indices {
		if i > 0 && idx <= s.Indices[i-1] {
			t.Fatalf("indices not strictly ascending at %d: %v", i, s.Indices)
		}
		if seen[idx] {
			t.Fatalf("index %d sampled twice", idx)
		}
		seen[idx] = true
		if float64(s.Values[i]) != float64(float32(v[idx])) {
			t.Fatalf("value mismatch at index %d", idx)
		}
	}
	if s.WireSize() != 8+20*8 {
		t.Fatalf("wire size %d", s.WireSize())
	}
	// Same rng seed reproduces the draw; a different seed changes it.
	s2, _ := RandK(v, 20, prng.New(7))
	for i := range s.Indices {
		if s.Indices[i] != s2.Indices[i] {
			t.Fatal("same seed drew different support")
		}
	}
	// Degenerate and error cases.
	if s, _ := RandK(v, 0, prng.New(1)); len(s.Indices) != 0 {
		t.Fatal("k=0 must keep nothing")
	}
	if s, _ := RandK(v, len(v), prng.New(1)); len(s.Indices) != len(v) {
		t.Fatal("k=n must keep everything")
	}
	if _, err := RandK(v, -1, prng.New(1)); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := RandK(v, len(v)+1, prng.New(1)); err == nil {
		t.Fatal("k>n accepted")
	}
}

// The Into forms reuse whatever the previous call left in the value and
// the scratch: a larger, then a smaller, then an odd-sized input through
// one set of buffers must give exactly what fresh allocating calls give —
// no stale index, value or packed byte may survive.
func TestIntoFormsReuseDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var (
		top, rnd Sparse
		q        Quantized
		mags     []float64
		idx      []int32
	)
	for _, n := range []int{700, 64, 333, 1, 0, 700} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		k := (n + 9) / 10
		mags, idx = append(mags[:0], make([]float64, n)...), append(idx[:0], make([]int32, n)...)

		wantTop, err := TopK(v, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := TopKInto(&top, mags, v, k); err != nil {
			t.Fatal(err)
		}
		requireSameSparse(t, "top-k", n, &top, wantTop)

		wantRnd := randKOracle(v, k, prng.New(int64(n)))
		if err := RandKInto(&rnd, idx, v, k, prng.New(int64(n))); err != nil {
			t.Fatal(err)
		}
		requireSameSparse(t, "rand-k", n, &rnd, wantRnd)

		for _, bits := range []int{3, 8} {
			want, err := Quantize(v, bits)
			if err != nil {
				t.Fatal(err)
			}
			if err := QuantizeInto(&q, v, bits); err != nil {
				t.Fatal(err)
			}
			if q.Bits != want.Bits || q.N != want.N || q.Min != want.Min || q.Max != want.Max || string(q.Data) != string(want.Data) {
				t.Fatalf("n=%d bits=%d: QuantizeInto over a used value differs from Quantize", n, bits)
			}
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // DequantizeInto must overwrite every element
			}
			q.DequantizeInto(got)
			for i, w := range want.Dequantize() {
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("n=%d bits=%d: DequantizeInto[%d] = %v, Dequantize %v", n, bits, i, got[i], w)
				}
			}
		}
	}
	if err := TopKInto(&top, make([]float64, 3), make([]float64, 4), 1); err == nil {
		t.Fatal("TopKInto accepted scratch of the wrong length")
	}
	if err := RandKInto(&rnd, make([]int32, 3), make([]float64, 4), 1, prng.New(1)); err == nil {
		t.Fatal("RandKInto accepted scratch of the wrong length")
	}
}

// randKOracle is RandK as it was before RandKInto: its own index array,
// sort.Slice over the selected prefix, fresh result slices.
func randKOracle(v []float64, k int, rng *prng.Rand) *Sparse {
	s := &Sparse{N: len(v)}
	if k == 0 {
		return s
	}
	idx := make([]int32, len(v))
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(v)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := idx[:k]
	sort.Slice(sel, func(a, b int) bool { return sel[a] < sel[b] })
	s.Indices = make([]int32, k)
	copy(s.Indices, sel)
	s.Values = make([]float32, k)
	for i, id := range s.Indices {
		s.Values[i] = float32(v[id])
	}
	return s
}

func requireSameSparse(t *testing.T, what string, n int, got, want *Sparse) {
	t.Helper()
	if got.N != want.N || len(got.Indices) != len(want.Indices) || len(got.Values) != len(want.Values) {
		t.Fatalf("%s n=%d: got N=%d with %d/%d entries, want N=%d with %d/%d", what, n,
			got.N, len(got.Indices), len(got.Values), want.N, len(want.Indices), len(want.Values))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] || math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
			t.Fatalf("%s n=%d: entry %d is (%d, %v), want (%d, %v)", what, n, i,
				got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
		}
	}
}
