package quantize

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzVector builds a length-n vector from a byte pattern tiled over it:
// each byte picks an entry's class — a Gaussian draw from seed's stream,
// a value from a coarse grid (ties), ±0, a subnormal, ±Inf or NaN.
func fuzzVector(n int, seed int64, pattern []byte) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		b := byte(0)
		if len(pattern) > 0 {
			b = pattern[i%len(pattern)]
		}
		switch b % 8 {
		case 0, 1:
			v[i] = rng.NormFloat64()
		case 2:
			v[i] = float64(rng.Intn(5)) * 0.25 * float64(1-2*rng.Intn(2))
		case 3:
			v[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		case 4:
			v[i] = math.Float64frombits(uint64(1+rng.Intn(1<<20))) * float64(1-2*rng.Intn(2))
		case 5:
			v[i] = math.Inf(1 - 2*(i&1))
		case 6:
			if b/8%4 == 0 {
				v[i] = math.NaN()
			} else {
				v[i] = rng.NormFloat64()
			}
		case 7:
			v[i] = 1e-3 * rng.NormFloat64()
		}
	}
	return v
}

// FuzzTopKInto compares TopKInto with the full quickselect it falls back
// on (fullTopK), bit for bit: kept indices, float32 values and wire size,
// across lengths on both sides of bracketFloor and every k. The scratch
// starts dirty, as an upload's dst does.
func FuzzTopKInto(f *testing.F) {
	f.Add(uint16(5000), uint16(50), int64(1), []byte{0})                   // Gaussian, bracketed
	f.Add(uint16(5000), uint16(50), int64(2), []byte{2})                   // ties on a grid
	f.Add(uint16(6000), uint16(60), int64(3), []byte{3, 4, 0})             // ±0 and subnormals
	f.Add(uint16(8000), uint16(80), int64(4), []byte{5})                   // alternating ±Inf
	f.Add(uint16(8000), uint16(80), int64(5), []byte{5, 5, 5, 6})          // infinities and NaN
	f.Add(uint16(bracketFloor-1), uint16(40), int64(6), []byte{0, 7})      // just under the floor
	f.Add(uint16(bracketFloor), uint16(40), int64(7), []byte{0, 7})        // at the floor
	f.Add(uint16(5000), uint16(0), int64(8), []byte{0})                    // k = 0
	f.Add(uint16(5000), uint16(1), int64(9), []byte{0, 2})                 // k = 1
	f.Add(uint16(5000), uint16(5000), int64(10), []byte{0, 3})             // k = n
	f.Add(uint16(9000), uint16(4500), int64(11), []byte{3, 3, 3, 3, 0, 2}) // half kept, mostly zeros
	f.Fuzz(func(t *testing.T, n, k uint16, seed int64, pattern []byte) {
		v := fuzzVector(int(n)%20_000, seed, pattern)
		kk := int(k) % (len(v) + 1)
		var got, want Sparse
		scratch := make([]float64, len(v))
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		if err := TopKInto(&got, scratch, v, kk); err != nil {
			t.Fatal(err)
		}
		want.reset(len(v), kk)
		if kk > 0 {
			want.fullTopK(make([]float64, len(v)), v, kk)
		}
		if got.WireSize() != want.WireSize() || len(got.Values) != len(want.Values) {
			t.Fatalf("n %d k %d: %d entries (wire %d), the full quickselect %d (wire %d)", len(v), kk, len(got.Indices), got.WireSize(), len(want.Indices), want.WireSize())
		}
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || math.Float32bits(got.Values[i]) != math.Float32bits(want.Values[i]) {
				t.Fatalf("n %d k %d: entry %d is (%d, %v), the full quickselect (%d, %v)", len(v), kk, i, got.Indices[i], got.Values[i], want.Indices[i], want.Values[i])
			}
		}
	})
}

// TestTopKBracketAndFallbackBothRun shows which way each kind of delta
// takes: the bracket resolves a Gaussian delta and an all-infinite one
// (at its low end), and refuses a delta holding a NaN, one shorter than
// bracketFloor, and one whose sample misleads it — every sampled entry
// large, every other tiny, half of them kept — which the full
// quickselect then selects.
func TestTopKBracketAndFallbackBothRun(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(3))
	gauss, inf, nan, lure := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range gauss {
		gauss[i] = rng.NormFloat64()
		inf[i] = math.Inf(1 - 2*(i&1))
		nan[i] = gauss[i]
		lure[i] = 1e-9 * float64(i)
		if i%(n/sampleLen) == 0 {
			lure[i] = 1 + float64(i)
		}
	}
	nan[n/2] = math.NaN()
	cases := []struct {
		name      string
		v         []float64
		k         int
		bracketed bool
	}{
		{"gaussian", gauss, n / 100, true},
		{"infinite", inf, n / 100, true},
		{"nan", nan, n / 100, false},
		{"short", gauss[:bracketFloor-1], 40, false},
		{"misleading sample", lure, n / 2, false},
	}
	for _, tc := range cases {
		var s, want Sparse
		s.reset(len(tc.v), tc.k)
		if got := s.bracketTopK(make([]float64, len(tc.v)), tc.v, tc.k); got != tc.bracketed {
			t.Errorf("%s: bracketed %t, want %t", tc.name, got, tc.bracketed)
		}
		if err := TopKInto(&s, make([]float64, len(tc.v)), tc.v, tc.k); err != nil {
			t.Fatal(err)
		}
		want.reset(len(tc.v), tc.k)
		want.fullTopK(make([]float64, len(tc.v)), tc.v, tc.k)
		requireSameSparse(t, tc.name, len(tc.v), &s, &want)
	}
}
