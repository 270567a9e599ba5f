package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// patchValues are the entries the round-trip property draws from: signed
// zeros, NaNs with distinct payloads (a float32 conversion quiets and
// truncates them), infinities, subnormals of both widths, values exact
// and inexact in float32, and the extremes past float32's range.
var patchValues = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0001),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	float64(math.SmallestNonzeroFloat32), -1e-40,
	0.5, -1.25, float64(float32(0.1)), 0.1, 1 + 0x1p-40,
	math.MaxFloat32, math.MaxFloat64, -math.MaxFloat64,
}

// drawPatchValue returns a special value half the time, a normal draw
// otherwise.
func drawPatchValue(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return patchValues[rng.Intn(len(patchValues))]
	}
	return rng.NormFloat64()
}

// The patch round trip is exact: for a random global g and an upload x
// that matches g's float32 image except at a chosen number of entries,
// compact keeps x sparse exactly when at most a quarter of it differs bit
// for bit, and then image plus patch is x bit for bit; and it reports x
// float32-exact exactly when every entry survives a float32 round trip. One patch is reused
// across every draw, as a job's is through the free list, so stale
// entries of a longer patch must not leak into a shorter one. Against
// g's float32 image held as float32s — a version under a float32
// downlink — compact and materialize give the same patch and the same x.
func TestUploadPatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p, p32 uploadPatch
	sparse, dense := 0, 0
	for iter := 0; iter < 3000; iter++ {
		n := []int{0, 1, 3, 4, 7, 64, 257}[rng.Intn(7)]
		g, x := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i] = drawPatchValue(rng)
			x[i] = f32Image(g[i])
		}
		// Patch densities on both sides of the n/4 line, and the crash
		// fault's alternating infinities over the whole vector.
		if iter%10 == 0 {
			for i := range x {
				x[i] = math.Inf(1 - 2*(i&1))
			}
		} else {
			d := min(n, []int{0, 1, n / 8, n / 4, n/4 + 1, n / 2, n}[rng.Intn(7)])
			for _, i := range rng.Perm(n)[:d] {
				x[i] = drawPatchValue(rng)
			}
		}
		differ, exact := 0, true
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(f32Image(g[i])) {
				differ++
			}
			exact = exact && math.Float64bits(x[i]) == math.Float64bits(f32Image(x[i]))
		}
		gotSparse, gotExact := compact(&p, x, g)
		g32 := make([]float32, n)
		for i, v := range g {
			g32[i] = float32(v)
		}
		if sparse32, exact32 := compact(&p32, x, g32); sparse32 != gotSparse || exact32 != gotExact {
			t.Fatalf("n=%d: compact against the float32 image = %t, %t, against the global %t, %t", n, sparse32, exact32, gotSparse, gotExact)
		}
		if want := differ <= n/4; gotSparse != want {
			t.Fatalf("n=%d, %d entries differ: compact = %t, want %t", n, differ, gotSparse, want)
		}
		if gotExact != exact {
			t.Fatalf("n=%d: compact reports float32-exact %t, the upload is %t", n, gotExact, exact)
		}
		if differ > n/4 {
			dense++
			continue
		}
		sparse++
		if len(p.idx) != differ || len(p.val) != differ {
			t.Fatalf("n=%d: patch holds %d indices and %d values for %d differences", n, len(p.idx), len(p.val), differ)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(rng.Uint64()) // garbage a pooled buffer may hold
		}
		out32 := slices.Clone(out)
		materialize(&p, out, g)
		materialize(&p32, out32, g32)
		for i := range x {
			if math.Float64bits(out[i]) != math.Float64bits(x[i]) {
				t.Fatalf("n=%d: entry %d rebuilt as %x, the upload holds %x", n, i, math.Float64bits(out[i]), math.Float64bits(x[i]))
			}
			if math.Float64bits(out32[i]) != math.Float64bits(x[i]) {
				t.Fatalf("n=%d: entry %d rebuilt against the float32 image as %x, the upload holds %x", n, i, math.Float64bits(out32[i]), math.Float64bits(x[i]))
			}
		}
	}
	if sparse < 1000 || dense < 500 {
		t.Fatalf("%d sparse and %d dense draws: the property checks too little of one side", sparse, dense)
	}
}
