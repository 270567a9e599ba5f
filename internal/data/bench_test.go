package data

import (
	"fmt"
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
