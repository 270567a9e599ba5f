package prng

import (
	"math"
	"testing"
)

// TestUniformMoments sanity-checks Float64: mean ~0.5, variance ~1/12.
func TestUniformMoments(t *testing.T) {
	r := New(1)
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", u)
		}
		sum += u
		sumSq += u * u
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

// TestNormalMoments sanity-checks NormFloat64: mean ~0, variance ~1.
func TestNormalMoments(t *testing.T) {
	r := New(2)
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

// TestExpMoments sanity-checks ExpFloat64: mean ~1.
func TestExpMoments(t *testing.T) {
	r := New(3)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("mean = %v, want ~1", mean)
	}
}

// TestIntnUniform checks Intn's rejection sampler covers [0,n) roughly
// uniformly, including a non-power-of-two n.
func TestIntnUniform(t *testing.T) {
	r := New(4)
	const n = 7
	const draws = 140_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("Intn(%d): value %d drawn %d times, want ~%.0f", n, v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(5).Intn(0)
}

// TestPermIsPermutation checks Perm returns each element exactly once.
func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// TestStateRoundTrip pins the resume guarantee: exporting the state
// mid-stream and restoring it into a fresh Rand continues bit-for-bit —
// including between the two halves of a NormFloat64 pair, which exercises
// the buffered spare.
func TestStateRoundTrip(t *testing.T) {
	r := New(7)
	for i := 0; i < 100; i++ {
		r.Float64()
	}
	r.NormFloat64() // leaves a spare buffered

	st := r.State()
	if !st.HasSpare {
		t.Fatal("expected a buffered spare after one NormFloat64")
	}
	r2 := New(0)
	r2.SetState(st)

	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if a, b := r.Uint64(), r2.Uint64(); a != b {
				t.Fatalf("draw %d: Uint64 diverged: %d vs %d", i, a, b)
			}
		case 1:
			if a, b := r.NormFloat64(), r2.NormFloat64(); a != b {
				t.Fatalf("draw %d: NormFloat64 diverged: %v vs %v", i, a, b)
			}
		case 2:
			if a, b := r.Intn(13), r2.Intn(13); a != b {
				t.Fatalf("draw %d: Intn diverged: %d vs %d", i, a, b)
			}
		case 3:
			if a, b := r.ExpFloat64(), r2.ExpFloat64(); a != b {
				t.Fatalf("draw %d: ExpFloat64 diverged: %v vs %v", i, a, b)
			}
		}
	}
}

// TestSeedsDecorrelated: adjacent seeds must produce uncorrelated streams
// (the registry derives many streams from one run seed).
func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if a.Uint64()&1 == b.Uint64()&1 {
			same++
		}
	}
	if same < n*45/100 || same > n*55/100 {
		t.Errorf("adjacent-seed bit agreement %d/%d, want ~50%%", same, n)
	}
}
