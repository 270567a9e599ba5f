package data

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// refSynthesise is the block synthesis as first written, kept as the
// oracle the production kernel is compared with: a *rand.Rand per worker
// chunk re-seeded per block, each sample's shifted and scaled prototype
// built into a float64 row by refShiftInto, then one normal per pixel
// added and encoded. Its multiply-adds round explicitly, as the
// production code's do, so the two agree on CPUs whose compiler would
// otherwise fuse them.
func refSynthesise(p params, kind Kind, protos [][]float64, n int, blockSeed func(b int) int64) *Dataset {
	size := p.channels * p.h * p.w
	d := &Dataset{
		Kind: kind, Classes: p.classes, Channels: p.channels,
		Height: p.h, Width: p.w,
		X: make([]uint8, n*size),
		Y: make([]int, n),
	}
	blocks := (n + blockSamples - 1) / blockSamples
	parallel.ForChunkedMin(blocks, 2, func(lo, hi int) {
		rng := rand.New(rand.NewSource(0))
		row := make([]float64, size)
		for b := lo; b < hi; b++ {
			rng.Seed(blockSeed(b))
			for i, end := b*blockSamples, min((b+1)*blockSamples, n); i < end; i++ {
				cls := rng.Intn(p.classes)
				d.Y[i] = cls
				dx := rng.Intn(2*p.maxShift+1) - p.maxShift
				dy := rng.Intn(2*p.maxShift+1) - p.maxShift
				amp := 1 + float64(0.2*rng.NormFloat64())
				refShiftInto(row, protos[cls], p.channels, p.h, p.w, dx, dy, amp)
				dst := d.X[i*size : (i+1)*size]
				for j, v := range row {
					dst[j] = EncodePixel(v + float64(rng.NormFloat64()*p.noise))
				}
			}
		}
	})
	return d
}

// refShiftInto writes amp * translate(src, dx, dy) into dst, zero-padding
// pixels shifted in from outside.
func refShiftInto(dst, src []float64, channels, h, w, dx, dy int, amp float64) {
	for c := 0; c < channels; c++ {
		base := c * h * w
		for y := 0; y < h; y++ {
			sy := y - dy
			for x := 0; x < w; x++ {
				sx := x - dx
				if sy < 0 || sy >= h || sx < 0 || sx >= w {
					dst[base+y*w+x] = 0
				} else {
					dst[base+y*w+x] = amp * src[base+sy*w+sx]
				}
			}
		}
	}
}

// refGenerate builds the splits Generate(spec) returns, at the sizes
// Generate chose, through refSynthesise.
func refGenerate(t *testing.T, spec Spec, nTrain, nTest int) (train, test *Dataset) {
	t.Helper()
	p, err := kindParams(spec.Kind)
	if err != nil {
		t.Fatal(err)
	}
	protos := makePrototypes(rand.New(rand.NewSource(spec.Seed)), p)
	train = refSynthesise(p, spec.Kind, protos, nTrain, func(b int) int64 {
		return prng.StreamSeed(spec.Seed, streamTrain, b)
	})
	test = refSynthesise(p, spec.Kind, protos, nTest, func(b int) int64 {
		return prng.StreamSeed(spec.Seed, streamTest, b)
	})
	return train, test
}

// Generate must equal the reference byte for byte, pixels and labels,
// for every kind at three seeds over several blocks and a tail, and for
// the full Table II MNIST corpus the benchmark builds (60 000 samples,
// 235 blocks, and the default test split).
func TestGenerateMatchesReference(t *testing.T) {
	specs := []Spec{{Kind: KindMNIST, Seed: 2023}}
	for _, k := range Kinds() {
		for _, seed := range []int64{1, 42, -7} {
			specs = append(specs, Spec{Kind: k, Train: 3*blockSamples + 5, Test: blockSamples + 1, Seed: seed})
		}
	}
	for _, spec := range specs {
		train, test, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantTrain, wantTest := refGenerate(t, spec, train.Len(), test.Len())
		for _, c := range []struct {
			split     string
			got, want *Dataset
		}{{"train", train, wantTrain}, {"test", test, wantTest}} {
			if !slices.Equal(c.got.Y, c.want.Y) {
				t.Errorf("%s seed %d: %s labels differ from the reference", spec.Kind, spec.Seed, c.split)
			}
			if !bytes.Equal(c.got.X, c.want.X) {
				i := 0
				for i < len(c.got.X) && c.got.X[i] == c.want.X[i] {
					i++
				}
				size := c.got.SampleSize()
				t.Errorf("%s seed %d: %s pixels differ from the reference, first at sample %d pixel %d", spec.Kind, spec.Seed, c.split, i/size, i%size)
			}
		}
	}
}
