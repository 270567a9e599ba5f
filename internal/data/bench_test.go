package data

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGenerateMNIST measures synthesis throughput of the MNIST-like
// generator at a test-sized corpus and at the 60 000 samples the committed
// benchmark builds; run it with -cpu 1,2 to see the per-block streams
// scale with the worker count.
func BenchmarkGenerateMNIST(b *testing.B) {
	for _, n := range []int{1000, 60000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Generate(Spec{Kind: KindMNIST, Train: n, Test: 10, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n) * 784)
		})
	}
}

// BenchmarkGenerateCIFAR measures the 3-channel 32x32 generator.
func BenchmarkGenerateCIFAR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(Spec{Kind: KindCIFAR, Train: 500, Test: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(500 * 3072)
}

// BenchmarkNormFloat64 times one standard normal drawn by the synthesis
// generator's row kernel, by its normFloat64 method, and by math/rand's
// NormFloat64 behind its Source interface, the draw the generator
// replaces. The kernel's time includes encoding the pixel it writes.
func BenchmarkNormFloat64(b *testing.B) {
	b.Run("noiseRow", func(b *testing.B) {
		var g synthRNG
		g.seed(1)
		row := make([]uint8, 784)
		for i := 0; i < b.N; i += len(row) {
			g.noiseRow(row[:min(len(row), b.N-i)], nil, 0, 0, 0, 1, 0.9)
		}
	})
	b.Run("synthRNG", func(b *testing.B) {
		var g synthRNG
		g.seed(1)
		var s float64
		for i := 0; i < b.N; i++ {
			s += g.normFloat64()
		}
		sink = s
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var s float64
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		sink = s
	})
}

var sink float64
