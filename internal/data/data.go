// Package data synthesises the image-classification datasets the paper
// evaluates on. The module is built offline, so MNIST / FashionMNIST /
// EMNIST / CIFAR-10 are replaced by procedural class-conditional
// generators that preserve what matters for federated-learning dynamics:
// class structure (a learnable class-conditional signal), per-dataset
// difficulty ordering, and the exact class/channel/dimension layout of
// each original dataset (Table II).
//
// Generation model: each class gets a smooth random "prototype" image
// (coarse Gaussian field, bilinearly upsampled) that is a blend of a
// dataset-shared component and a class-unique component; the blend factor
// sets class separability and therefore task difficulty. A sample is its
// class prototype after a random translation, amplitude jitter, and pixel
// noise — the synthetic analogue of writing-style variation.
//
// Storage: samples are computed in float64 and kept at rest as uint8,
// row-major [N, C*H*W] — the width the originals ship in — on one fixed
// grid (EncodePixel/DecodePixel: step 1/16, code 128 = 0.0, saturating at
// -8 and +7.9375), which FillBatch decodes exactly into the float64 batch
// tensors: MNIST/FMNIST 47 MB, EMNIST 88 MB, CIFAR 154 MB at the Table II
// sizes. The grid is part of the dataset's definition, not fitted to a
// corpus — a per-corpus min/max scale would make a sample depend on its
// neighbours and break the two properties below. Pixel noise has std
// 0.75-0.95, 12-15 grid steps, and samples stay inside +-6.3, so
// quantisation is far below the noise floor and nothing saturates.
//
// Blocks: a split is cut into consecutive blocks of blockSamples samples.
// The class prototypes come from one stream seeded with Spec.Seed; block b
// of a split draws its labels, shifts, amplitudes and pixel noise from a
// stream seeded with prng.StreamSeed(Spec.Seed, streamTrain|streamTest, b)
// and nothing else, and blocks are synthesised on every thread. Block
// edges and seeds do not depend on the worker count, so the corpus is
// byte-identical at any GOMAXPROCS; a block does not depend on the split's
// length, so the n-sample corpus is a prefix of the m-sample one (m > n),
// train and test alike.
//
// Streams: a block's stream is math/rand's, the values
// rand.New(rand.NewSource(seed)) gives, but drawn by synthRNG (rng.go), a
// copy of math/rand's generator whose register step and ziggurat fast
// path the row kernel inlines: math/rand's draws go through the Source
// interface one call at a time. Go 1 compatibility freezes math/rand's
// value stream, so a faithful copy stays equal to it. The copy reads its
// starting register out of math/rand's own seeding, and two tests hold
// it to math/rand: TestGenerateStreamMatchesMathRand compares 10M draws
// of every kind, slow branches included, and TestGenerateMatchesReference
// compares whole corpora with the *rand.Rand synthesis this replaced. The
// class prototypes are drawn through *rand.Rand itself.
//
// Rounding: every multiply-add rounds its product explicitly,
// float64(x*y) + z. The Go spec lets a compiler fuse x*y + z into one
// rounding, and arm64's does, which would make the corpus depend on the
// architecture (ROADMAP item 16); the explicit conversion forbids the
// fusion and leaves amd64's code as it was.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// Kind names one of the four paper datasets.
type Kind string

const (
	KindMNIST  Kind = "mnist"
	KindFMNIST Kind = "fmnist"
	KindEMNIST Kind = "emnist"
	KindCIFAR  Kind = "cifar"
)

// Kinds lists the datasets in the paper's Table II order.
func Kinds() []Kind { return []Kind{KindMNIST, KindFMNIST, KindEMNIST, KindCIFAR} }

// params holds the per-kind generation parameters.
type params struct {
	classes, channels, h, w int
	separation              float64 // class-unique blend weight in (0,1]
	noise                   float64 // pixel noise std
	maxShift                int     // translation jitter in pixels
	clientSamples           int     // Table II "Client Samples" column
	totalSamples            int     // Table II "Total Samples" column
}

func kindParams(k Kind) (params, error) {
	switch k {
	case KindMNIST:
		return params{classes: 10, channels: 1, h: 28, w: 28, separation: 0.80, noise: 0.90, maxShift: 2, clientSamples: 600, totalSamples: 60000}, nil
	case KindFMNIST:
		return params{classes: 10, channels: 1, h: 28, w: 28, separation: 0.62, noise: 0.95, maxShift: 2, clientSamples: 1000, totalSamples: 60000}, nil
	case KindEMNIST:
		return params{classes: 47, channels: 1, h: 28, w: 28, separation: 0.68, noise: 0.80, maxShift: 2, clientSamples: 3000, totalSamples: 112800}, nil
	case KindCIFAR:
		return params{classes: 10, channels: 3, h: 32, w: 32, separation: 0.62, noise: 0.75, maxShift: 3, clientSamples: 2000, totalSamples: 50000}, nil
	}
	return params{}, fmt.Errorf("data: unknown dataset kind %q", k)
}

// Stats is one row of the paper's Table II.
type Stats struct {
	Kind          Kind
	TotalSamples  int
	Classes       int
	Channels      int
	Height, Width int
	ClientSamples int
}

// TableII returns the dataset-description row for kind k.
func TableII(k Kind) (Stats, error) {
	p, err := kindParams(k)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Kind: k, TotalSamples: p.totalSamples, Classes: p.classes, Channels: p.channels, Height: p.h, Width: p.w, ClientSamples: p.clientSamples}, nil
}

// Spec configures dataset synthesis.
type Spec struct {
	Kind Kind
	// Train and Test sample counts. Zero selects the per-kind defaults
	// scaled to SizeScale.
	Train, Test int
	// Seed makes generation deterministic.
	Seed int64
}

// Dataset is an in-memory labelled image set. X holds the pixels as grid
// codes (EncodePixel), row-major [N, C*H*W]; FillBatch is how training and
// evaluation read them, decoded to float64.
type Dataset struct {
	Kind          Kind
	Classes       int
	Channels      int
	Height, Width int
	X             []uint8
	Y             []int
}

// SampleSize returns C*H*W.
func (d *Dataset) SampleSize() int { return d.Channels * d.Height * d.Width }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Generate synthesises train and test sets that share class prototypes
// (so a model trained on train generalises to test exactly when it learned
// the class signal, not the noise). The result is a pure function of spec:
// it does not depend on GOMAXPROCS, and shrinking Train or Test keeps a
// prefix of the larger split (see the package comment on blocks).
func Generate(spec Spec) (train, test *Dataset, err error) {
	p, err := kindParams(spec.Kind)
	if err != nil {
		return nil, nil, err
	}
	nTrain, nTest := spec.Train, spec.Test
	if nTrain <= 0 {
		nTrain = p.totalSamples
	}
	if nTest <= 0 {
		nTest = nTrain / 6
		if nTest < p.classes*10 {
			nTest = p.classes * 10
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed)) //fedtripvet:allow dataset synthesis is pinned by the spec's own seed, outside any run's stream space
	protos := makePrototypes(rng, p)
	train = synthesise(p, spec.Kind, protos, nTrain, func(b int) int64 {
		return prng.StreamSeed(spec.Seed, streamTrain, b)
	})
	test = synthesise(p, spec.Kind, protos, nTest, func(b int) int64 {
		return prng.StreamSeed(spec.Seed, streamTest, b)
	})
	return train, test, nil
}

// makePrototypes builds one smooth prototype image per class: a blend of a
// shared field (common to all classes) and a class-unique field.
func makePrototypes(rng *rand.Rand, p params) [][]float64 { //fedtripvet:allow rng is the spec-seeded synthesis generator threaded from Load
	size := p.channels * p.h * p.w
	shared := smoothField(rng, p.channels, p.h, p.w)
	protos := make([][]float64, p.classes)
	common := 1 - p.separation
	for c := range protos {
		unique := smoothField(rng, p.channels, p.h, p.w)
		img := make([]float64, size)
		for i := range img {
			img[i] = float64(common*shared[i]) + float64(p.separation*unique[i])
		}
		protos[c] = img
	}
	return protos
}

// smoothField samples a coarse Gaussian grid and bilinearly upsamples it,
// producing a band-limited random image per channel (so small translations
// change pixels smoothly, as in natural images).
func smoothField(rng *rand.Rand, channels, h, w int) []float64 { //fedtripvet:allow rng is the spec-seeded synthesis generator threaded from Load
	const coarse = 7
	out := make([]float64, channels*h*w)
	grid := make([]float64, (coarse+1)*(coarse+1))
	for c := 0; c < channels; c++ {
		for i := range grid {
			grid[i] = rng.NormFloat64()
		}
		base := c * h * w
		for y := 0; y < h; y++ {
			fy := float64(float64(y) / float64(h-1) * float64(coarse-1))
			y0 := int(fy)
			ty := fy - float64(y0)
			for x := 0; x < w; x++ {
				fx := float64(float64(x) / float64(w-1) * float64(coarse-1))
				x0 := int(fx)
				tx := fx - float64(x0)
				v00 := grid[y0*(coarse+1)+x0]
				v01 := grid[y0*(coarse+1)+x0+1]
				v10 := grid[(y0+1)*(coarse+1)+x0]
				v11 := grid[(y0+1)*(coarse+1)+x0+1]
				top := float64((1-tx)*v00) + float64(tx*v01)
				bottom := float64((1-tx)*v10) + float64(tx*v11)
				out[base+y*w+x] = float64((1-ty)*top) + float64(ty*bottom)
			}
		}
	}
	return out
}

// blockSamples is the number of consecutive samples one seed stream
// draws. It is part of the dataset's definition, like the prototype grid
// size: changing it changes every sample past the first block.
const blockSamples = 256

// The pixel grid: code q stands for (q-pixelZero)/pixelScale, so the 256
// codes cover [-8, 7.9375] in steps of 1/16. Like blockSamples it is part
// of the dataset's definition: changing it changes every stored sample.
const (
	pixelScale = 16
	pixelZero  = 128
)

// EncodePixel returns the grid code nearest v (halves round up), saturating
// at code 0 below -8 and code 255 above +7.9375. It is total: -Inf and +Inf
// saturate and NaN, which has no nearest code, is stored as 0.0 (code 128).
func EncodePixel(v float64) uint8 {
	// Shifted to be non-negative, truncation rounds to nearest; math.Round
	// on the signed value costs a tenth or more of the whole corpus build.
	// NaN fails both comparisons, so it is tested before the conversion,
	// whose result for NaN is implementation-defined.
	s := float64(v*pixelScale) + (pixelZero + 0.5)
	switch {
	case s >= 256:
		return 255
	case s >= 0:
		return uint8(int(s))
	case math.IsNaN(s):
		return pixelZero
	}
	return 0
}

// DecodePixel returns the value code q stands for; the arithmetic is exact
// in float64 and EncodePixel(DecodePixel(q)) == q for every q.
func DecodePixel(q uint8) float64 { return (float64(q) - pixelZero) / pixelScale }

// synthesise draws n samples block by block, in parallel over blocks;
// blockSeed(b) is the split's seed for block b. Each worker chunk owns one
// generator, re-seeded per block, so allocations scale with the worker
// count and not with n. A sample is written row by row in one pass: each
// image row's pixels are its shifted prototype row (zero where the shift
// brings in padding) plus one normal each, encoded straight into X.
func synthesise(p params, kind Kind, protos [][]float64, n int, blockSeed func(b int) int64) *Dataset {
	size := p.channels * p.h * p.w
	d := &Dataset{
		Kind: kind, Classes: p.classes, Channels: p.channels,
		Height: p.h, Width: p.w,
		X: make([]uint8, n*size),
		Y: make([]int, n),
	}
	blocks := (n + blockSamples - 1) / blockSamples
	parallel.ForChunkedMin(blocks, 2, func(lo, hi int) {
		var g synthRNG
		for b := lo; b < hi; b++ {
			g.seed(blockSeed(b))
			for i, end := b*blockSamples, min((b+1)*blockSamples, n); i < end; i++ {
				cls := g.intn(p.classes)
				d.Y[i] = cls
				dx := g.intn(2*p.maxShift+1) - p.maxShift
				dy := g.intn(2*p.maxShift+1) - p.maxShift
				amp := 1 + float64(0.2*g.normFloat64())
				// Pixel x of an image row reads x-dx of its source row,
				// which is inside the image for x in [x0, x1).
				x0, x1 := max(dx, 0), min(p.w+dx, p.w)
				src, dst := protos[cls], d.X[i*size:(i+1)*size]
				for c := 0; c < p.channels; c++ {
					for y := 0; y < p.h; y++ {
						srow, from, to := []float64(nil), 0, 0
						if sy := y - dy; sy >= 0 && sy < p.h {
							srow, from, to = src[(c*p.h+sy)*p.w:][:p.w], x0, x1
						}
						g.noiseRow(dst[(c*p.h+y)*p.w:][:p.w], srow, from, to, dx, amp, p.noise)
					}
				}
			}
		}
	})
	return d
}

// FillBatch decodes the samples at idx into x (shape [len(idx), C, H, W]
// or [len(idx), C*H*W]), each value exactly DecodePixel(X[i]), and copies
// their labels into labels.
func (d *Dataset) FillBatch(x *tensor.Tensor, labels []int, idx []int) {
	size := d.SampleSize()
	if x.Numel() != len(idx)*size {
		panic(fmt.Sprintf("data: batch tensor %v cannot hold %d samples of %d", x.Shape(), len(idx), size))
	}
	if len(labels) != len(idx) {
		panic("data: labels length mismatch")
	}
	for bi, si := range idx {
		if si < 0 || si >= d.Len() {
			panic(fmt.Sprintf("data: sample index %d out of range [0,%d)", si, d.Len()))
		}
		dst := x.Data[bi*size : (bi+1)*size]
		for j, v := range d.X[si*size : (si+1)*size] {
			dst[j] = DecodePixel(v)
		}
		labels[bi] = d.Y[si]
	}
}

// ClassCounts returns how many samples of each class the index subset
// contains (all samples when idx is nil).
func (d *Dataset) ClassCounts(idx []int) []int {
	counts := make([]int, d.Classes)
	if idx == nil {
		for _, y := range d.Y {
			counts[y]++
		}
		return counts
	}
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	return counts
}
