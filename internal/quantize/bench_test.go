package quantize

import (
	"math"
	"math/rand"
	"testing"
)

// topKDeltas are the three deltas a top-k uplink meets in
// wire1k_topk_median, at its shape (|w| = 79,510, 1 % kept): an honest
// client's Gaussian-tailed delta, a crash-faulted client's alternating
// infinities, and the delta a crashed client's residual leaves behind,
// infinities with a NaN wherever the crash's kept entries were.
func topKDeltas() (n, k int, deltas []struct {
	name string
	v    []float64
}) {
	n, k = 79_510, 796
	rng := rand.New(rand.NewSource(1))
	gauss := make([]float64, n)
	inf := make([]float64, n)
	nan := make([]float64, n)
	for i := range gauss {
		gauss[i] = 0.01 * rng.NormFloat64()
		inf[i] = math.Inf(1 - 2*(i&1))
		nan[i] = inf[i]
		if i%100 == 0 {
			nan[i] = math.NaN()
		}
	}
	return n, k, []struct {
		name string
		v    []float64
	}{{"gaussian", gauss}, {"inf", inf}, {"nan", nan}}
}

// BenchmarkTopKInto times one top-k selection at wire1k_topk_median's
// shape through scratch the caller keeps, into a result its first call
// sized; it allocates nothing.
func BenchmarkTopKInto(b *testing.B) {
	n, k, deltas := topKDeltas()
	for _, d := range deltas {
		b.Run(d.name, func(b *testing.B) {
			var s Sparse
			scratch := make([]float64, n)
			if err := TopKInto(&s, scratch, d.v, k); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := TopKInto(&s, scratch, d.v, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
