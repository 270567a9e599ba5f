package data

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// widen returns the first n samples of d as float64 rows, read the way
// every non-test caller reads them: through FillBatch.
func widen(d *Dataset, n int) []float64 {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x := tensor.New(n, d.SampleSize())
	d.FillBatch(x, make([]int, n), idx)
	return x.Data
}

// sameCorpus reports whether a and b hold the same labels and the same
// pixel bytes.
func sameCorpus(a, b *Dataset) bool {
	return bytes.Equal(a.X, b.X) && slices.Equal(a.Y, b.Y)
}

func TestTableIIMatchesPaper(t *testing.T) {
	want := map[Kind]Stats{
		KindMNIST:  {Kind: KindMNIST, TotalSamples: 60000, Classes: 10, Channels: 1, Height: 28, Width: 28, ClientSamples: 600},
		KindFMNIST: {Kind: KindFMNIST, TotalSamples: 60000, Classes: 10, Channels: 1, Height: 28, Width: 28, ClientSamples: 1000},
		KindEMNIST: {Kind: KindEMNIST, TotalSamples: 112800, Classes: 47, Channels: 1, Height: 28, Width: 28, ClientSamples: 3000},
		KindCIFAR:  {Kind: KindCIFAR, TotalSamples: 50000, Classes: 10, Channels: 3, Height: 32, Width: 32, ClientSamples: 2000},
	}
	for _, k := range Kinds() {
		got, err := TableII(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[k] {
			t.Errorf("TableII(%s) = %+v, want %+v", k, got, want[k])
		}
	}
	if _, err := TableII(Kind("bogus")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestGenerateShapesAndLabels(t *testing.T) {
	train, test, err := Generate(Spec{Kind: KindMNIST, Train: 500, Test: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 500 || test.Len() != 100 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	if train.SampleSize() != 784 {
		t.Fatalf("sample size %d", train.SampleSize())
	}
	for _, y := range train.Y {
		if y < 0 || y >= train.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
	if len(train.X) != 500*784 {
		t.Fatalf("X len %d", len(train.X))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(Spec{Kind: KindCIFAR, Train: 50, Test: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := Generate(Spec{Kind: KindCIFAR, Train: 50, Test: 10, Seed: 7})
	if !sameCorpus(a, b) {
		t.Fatal("same seed, different data")
	}
	c, _, _ := Generate(Spec{Kind: KindCIFAR, Train: 50, Test: 10, Seed: 8})
	if tensor.MaxAbsDiff(widen(a, 50), widen(c, 50)) == 0 {
		t.Fatal("different seed, identical data")
	}
}

// The corpus must not depend on how many threads synthesised it: block
// edges and block seeds are fixed by the spec, so every kind's train and
// test split is byte-identical at any GOMAXPROCS. Sizes span several
// blocks so that widths 2 and 4 really split the work.
func TestGenerateWorkerCountIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range Kinds() {
		spec := Spec{Kind: k, Train: 5*blockSamples + 7, Test: 2*blockSamples + 1, Seed: 13}
		runtime.GOMAXPROCS(1)
		wantTrain, wantTest, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			train, test, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCorpus(train, wantTrain) {
				t.Errorf("%s: train split at GOMAXPROCS=%d differs from GOMAXPROCS=1", k, procs)
			}
			if !sameCorpus(test, wantTest) {
				t.Errorf("%s: test split at GOMAXPROCS=%d differs from GOMAXPROCS=1", k, procs)
			}
		}
	}
}

// A block depends only on (seed, split, block index), so a smaller corpus
// is a prefix of a larger one — for the test split too. The sizes sit on
// both sides of a block edge.
func TestGeneratePrefixStable(t *testing.T) {
	for _, k := range Kinds() {
		const full = 4*blockSamples + 20
		fullTrain, fullTest, err := Generate(Spec{Kind: k, Train: full, Test: full, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		size := fullTrain.SampleSize()
		for _, n := range []int{1, blockSamples - 1, blockSamples, blockSamples + 1, 1000} {
			train, test, err := Generate(Spec{Kind: k, Train: n, Test: n, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				split      string
				got, whole *Dataset
			}{{"train", train, fullTrain}, {"test", test, fullTest}} {
				prefix := &Dataset{X: c.whole.X[:n*size], Y: c.whole.Y[:n]}
				if c.got.Len() != n || !sameCorpus(c.got, prefix) {
					t.Errorf("%s: %s split of %d samples is not a prefix of the %d-sample split", k, c.split, n, full)
				}
			}
		}
	}
}

// Generation allocates per worker chunk (one generator's math/rand
// source, one goroutine), never per block or per sample: quadrupling the
// blocks must stay under the same ceiling, alone on one thread
// (AllocsPerRun pins GOMAXPROCS to 1) and across four.
func TestGenerateAllocsBoundedByWorkers(t *testing.T) {
	// 35 allocations do not depend on the corpus: 11 smooth fields and
	// prototypes, two Dataset values with X and Y, the block-seed
	// closures and one serial chunk's math/rand source per split (the
	// one-block test split always runs serially; the generator itself
	// lives on the chunk's stack). A parallel chunk adds its goroutine
	// and closure: at most 5 per chunk.
	const fixed, perChunk = 35, 5
	generate := func(n int) func() {
		return func() {
			if _, _, err := Generate(Spec{Kind: KindMNIST, Train: n, Test: 10, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range []int{1000, 4000} {
		if got := testing.AllocsPerRun(2, generate(n)); got > fixed {
			t.Errorf("one worker: Generate of %d samples made %.0f allocations, ceiling %d", n, got, fixed)
		}
	}
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, n := range []int{1000, 4000} {
		// The runtime allocates in the background too; the quietest of
		// three runs is the generator's own count.
		got := uint64(math.MaxUint64)
		for r := 0; r < 3; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			generate(n)()
			runtime.ReadMemStats(&after)
			got = min(got, after.Mallocs-before.Mallocs)
		}
		if ceiling := uint64(fixed + procs*perChunk); got > ceiling {
			t.Errorf("%d workers: Generate of %d samples made %d allocations, ceiling %d", procs, n, got, ceiling)
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, _, err := Generate(Spec{Kind: "nope", Train: 10, Test: 10}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDefaultSizes(t *testing.T) {
	train, test, err := Generate(Spec{Kind: KindMNIST, Seed: 1, Train: 0, Test: 0})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 60000 {
		t.Fatalf("default train size %d != Table II total", train.Len())
	}
	if test.Len() <= 0 {
		t.Fatal("default test size not positive")
	}
}

func TestClassesRoughlyBalanced(t *testing.T) {
	train, _, err := Generate(Spec{Kind: KindMNIST, Train: 5000, Test: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := train.ClassCounts(nil)
	for c, n := range counts {
		if n < 300 || n > 700 {
			t.Fatalf("class %d has %d samples (expected ~500)", c, n)
		}
	}
}

// Class signal sanity: the mean intra-class distance must be smaller than
// the mean inter-class distance, otherwise nothing is learnable.
func TestClassSeparationExists(t *testing.T) {
	for _, k := range Kinds() {
		train, _, err := Generate(Spec{Kind: k, Train: 400, Test: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		size := train.SampleSize()
		x := widen(train, 100)
		var intra, inter float64
		var nIntra, nInter int
		for i := 0; i < 100; i++ {
			for j := i + 1; j < 100; j++ {
				d := tensor.DistSq(x[i*size:(i+1)*size], x[j*size:(j+1)*size])
				if train.Y[i] == train.Y[j] {
					intra += d
					nIntra++
				} else {
					inter += d
					nInter++
				}
			}
		}
		if nIntra == 0 || nInter == 0 {
			t.Fatalf("%s: degenerate label draw", k)
		}
		intra /= float64(nIntra)
		inter /= float64(nInter)
		if inter <= intra*1.05 {
			t.Errorf("%s: inter-class distance %.3f not larger than intra-class %.3f", k, inter, intra)
		}
	}
}

// Difficulty ordering: MNIST-like must have the largest class-separation
// margin of the four kinds (it is the easy dataset everywhere in the
// paper), and every kind must retain a positive margin. FMNIST/EMNIST/
// CIFAR difficulty additionally comes from class count and input size, so
// only MNIST's dominance is asserted on raw pixels.
func TestDifficultyOrdering(t *testing.T) {
	margin := func(k Kind) float64 {
		train, _, err := Generate(Spec{Kind: k, Train: 300, Test: 10, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		size := train.SampleSize()
		x := widen(train, 150)
		var intra, inter float64
		var nIntra, nInter int
		for i := 0; i < 150; i++ {
			for j := i + 1; j < 150; j++ {
				d := tensor.DistSq(x[i*size:(i+1)*size], x[j*size:(j+1)*size]) / float64(size)
				if train.Y[i] == train.Y[j] {
					intra += d
					nIntra++
				} else {
					inter += d
					nInter++
				}
			}
		}
		return (inter / float64(nInter)) / (intra / float64(nIntra))
	}
	mnist := margin(KindMNIST)
	for _, k := range []Kind{KindFMNIST, KindEMNIST, KindCIFAR} {
		if m := margin(k); m <= 1.0 {
			t.Errorf("%s margin %.3f: no class signal", k, m)
		}
	}
	// Same-class-count comparisons: MNIST must be the easiest 10-class
	// set (EMNIST's difficulty is its 47 classes, not pixel distance).
	for _, k := range []Kind{KindFMNIST, KindCIFAR} {
		if m := margin(k); mnist <= m {
			t.Errorf("MNIST margin %.3f should exceed %s margin %.3f", mnist, k, m)
		}
	}
}

func TestFillBatch(t *testing.T) {
	train, _, err := Generate(Spec{Kind: KindMNIST, Train: 20, Test: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 1, 28, 28)
	labels := make([]int, 3)
	idx := []int{5, 0, 19}
	train.FillBatch(x, labels, idx)
	for bi, si := range idx {
		if labels[bi] != train.Y[si] {
			t.Fatalf("label %d mismatch", bi)
		}
		for j := 0; j < 784; j++ {
			if x.Data[bi*784+j] != DecodePixel(train.X[si*784+j]) {
				t.Fatalf("pixel %d of batch row %d is not DecodePixel(X[%d])", j, bi, si*784+j)
			}
		}
	}
}

func TestFillBatchPanics(t *testing.T) {
	train, _, _ := Generate(Spec{Kind: KindMNIST, Train: 5, Test: 10, Seed: 2})
	t.Run("shape", func(t *testing.T) {
		defer expectPanic(t)
		train.FillBatch(tensor.New(2, 10), make([]int, 2), []int{0, 1})
	})
	t.Run("labels", func(t *testing.T) {
		defer expectPanic(t)
		train.FillBatch(tensor.New(2, 784), make([]int, 1), []int{0, 1})
	})
	t.Run("index", func(t *testing.T) {
		defer expectPanic(t)
		train.FillBatch(tensor.New(1, 784), make([]int, 1), []int{99})
	})
}

func TestClassCountsSubset(t *testing.T) {
	train, _, _ := Generate(Spec{Kind: KindMNIST, Train: 100, Test: 10, Seed: 4})
	idx := []int{0, 1, 2}
	counts := train.ClassCounts(idx)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("subset counts sum %d", total)
	}
}

// Train/test must share prototypes: a nearest-class-mean classifier fit on
// train must beat chance on test by a wide margin.
func TestTrainTestShareClassStructure(t *testing.T) {
	train, test, err := Generate(Spec{Kind: KindMNIST, Train: 1000, Test: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	size := train.SampleSize()
	means := make([][]float64, train.Classes)
	counts := make([]int, train.Classes)
	for c := range means {
		means[c] = make([]float64, size)
	}
	trainX, testX := widen(train, train.Len()), widen(test, test.Len())
	for i := 0; i < train.Len(); i++ {
		y := train.Y[i]
		counts[y]++
		tensor.Axpy(1, trainX[i*size:(i+1)*size], means[y])
	}
	for c := range means {
		if counts[c] > 0 {
			tensor.Scale(1/float64(counts[c]), means[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		x := testX[i*size : (i+1)*size]
		best, bestD := -1, math.Inf(1)
		for c := range means {
			if d := tensor.DistSq(x, means[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-mean test accuracy %.3f — class signal does not generalise", acc)
	}
}

func expectPanic(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Fatal("expected panic")
	}
}

// Every code is a fixed point of decode-then-encode, and the grid's ends
// and zero are where the package comment says they are.
func TestPixelCodecRoundTripsEveryCode(t *testing.T) {
	for q := 0; q < 256; q++ {
		if got := EncodePixel(DecodePixel(uint8(q))); got != uint8(q) {
			t.Errorf("EncodePixel(DecodePixel(%d)) = %d", q, got)
		}
	}
	if lo, zero, hi := DecodePixel(0), DecodePixel(128), DecodePixel(255); lo != -8 || zero != 0 || hi != 7.9375 {
		t.Errorf("grid spans [%v, %v] with code 128 = %v, want [-8, 7.9375] and 0", lo, hi, zero)
	}
}

// Inside the grid's range encoding rounds to the nearest code: the error
// is at most half a step, on a fine sweep and on random values.
func TestPixelCodecErrorWithinHalfAStep(t *testing.T) {
	const lo, hi, halfStep = -8.0, 7.96875, 1.0 / 32
	check := func(v float64) {
		if e := math.Abs(v - DecodePixel(EncodePixel(v))); e > halfStep {
			t.Fatalf("|%v - decode(encode)| = %v > 1/32", v, e)
		}
	}
	for v := lo; v <= hi; v += 1.0 / 1024 {
		check(v)
	}
	rng := newTestRng()
	for i := 0; i < 100000; i++ {
		check(lo + rng.Float64()*(hi-lo))
	}
}

// Outside the range the codec saturates, and it is total: the infinities
// saturate like any other out-of-range value and NaN is stored as 0.0.
func TestPixelCodecSaturatesAndIsTotal(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want uint8
	}{
		{-8, 0}, {-8.04, 0}, {-9, 0}, {-1e300, 0}, {math.Inf(-1), 0},
		{7.9375, 255}, {7.96875, 255}, {8, 255}, {1e300, 255}, {math.Inf(1), 255},
		{math.NaN(), 128}, {0, 128}, {math.Copysign(0, -1), 128},
		{1.0 / 32, 129}, {-1.0 / 32, 128}, {0.03, 128}, {-0.04, 127},
	} {
		if got := EncodePixel(c.v); got != c.want {
			t.Errorf("EncodePixel(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// The grid is fixed, not fitted, so it must be wide enough for what the
// generators draw: at each kind's Table II noise no sample reaches a
// saturated code, and the decoded pixels keep the moments the float64
// synthesis has (|mean| < 0.1, std 0.85-1.10 over the four kinds).
func TestCorpusFitsTheGrid(t *testing.T) {
	for _, k := range Kinds() {
		for seed := int64(1); seed <= 3; seed++ {
			train, _, err := Generate(Spec{Kind: k, Train: 2000, Test: 10, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var sum, sumSq float64
			for _, q := range train.X {
				if q == 0 || q == 255 {
					t.Fatalf("%s seed %d: saturated code %d in the corpus", k, seed, q)
				}
				v := DecodePixel(q)
				sum += v
				sumSq += v * v
			}
			n := float64(len(train.X))
			mean := sum / n
			std := math.Sqrt(sumSq/n - mean*mean)
			if math.Abs(mean) >= 0.1 || std < 0.85 || std > 1.10 {
				t.Errorf("%s seed %d: mean %.4f std %.4f outside |mean| < 0.1, std in [0.85, 1.10]", k, seed, mean, std)
			}
		}
	}
}
