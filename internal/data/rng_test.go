package data

import (
	"math"
	"math/rand"
	"testing"
)

// The synthesis generator must continue math/rand's value stream draw for
// draw: from the same seed, a *rand.Rand and a synthRNG called in the
// same order return the same values, over 10M draws of every kind the
// corpus uses. Normals dominate the mix, so that the ziggurat's two slow
// branches (the base strip, taken by about one normal in 1 800, and the
// wedge test, by about one in 37) are reached thousands of times each; Intn's bounds include
// powers of two (the masked path) and one whose rejection rate is a
// quarter; Float64 and Int63 expose the raw register words.
func TestGenerateStreamMatchesMathRand(t *testing.T) {
	const perSeed = 1_666_667
	bounds := []int{10, 5, 47, 7, 1, 64, 1 << 30, 3 << 29, math.MaxInt32}
	var g synthRNG
	n := 0
	for _, seed := range []int64{0, 1, -5, 2023, math.MinInt64, 1 << 40} {
		r := rand.New(rand.NewSource(seed))
		g.seed(seed)
		for k := 0; k < perSeed; k++ {
			switch k % 8 {
			case 0:
				if want, got := r.Int63(), g.int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, got, want)
				}
			case 1:
				b := bounds[(k/8)%len(bounds)]
				if want, got := r.Intn(b), g.intn(b); got != want {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, k, b, got, want)
				}
			case 2:
				if want, got := r.Float64(), g.float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, k, got, want)
				}
			default:
				if want, got := r.NormFloat64(), g.normFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, k, got, want)
				}
			}
			n++
		}
	}
	if n < 10_000_000 || g.strips < 1000 || g.wedges < 1000 {
		t.Fatalf("%d draws reached the base strip %d times and the wedge test %d times; want 10M draws and 1000 of each", n, g.strips, g.wedges)
	}
	t.Logf("%d draws: base strip %d, wedge test %d", n, g.strips, g.wedges)
}
