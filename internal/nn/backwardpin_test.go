package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// gradBits is the FNV-1a hash of the Float64bits of m's gradient vector.
func gradBits(m *Model) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.Grads() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBackwardBitsPinned pins, bit for bit, the parameter gradient of one
// training step: the paper's CNN at 50 and a quarter-width AlexNet at 8
// (dropout masks drawn), each with and without an extra feature gradient
// at the head (MOON's path), and TestWideBatchMatchesSerial's shape at two
// workers, where conv and pooling split the batch into chunks. The
// literals were taken before input gradients were written into activation
// buffers; they are amd64 values.
func TestBackwardBitsPinned(t *testing.T) {
	cnn := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10}
	alex := ModelSpec{Arch: ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.25}
	wide := ModelSpec{Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25}
	for _, c := range []struct {
		name  string
		spec  ModelSpec
		batch int
		procs int // 0: leave GOMAXPROCS as it is
		extra bool
		want  string
	}{
		{"cnn@50", cnn, 50, 0, false, "86e1671739130db7"},
		{"cnn@50+feature", cnn, 50, 0, true, "8cd13b7b57eca928"},
		{"alexnet@8", alex, 8, 0, false, "c4bb56eacdfe81bb"},
		{"alexnet@8+feature", alex, 8, 0, true, "8705b23aa744e7f2"},
		{"cnn0.25@260/2", wide, 260, 2, false, "9f0809c03c9ba4d2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			m, err := c.spec.Build(2)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			x, labels := randBatch(rng, m, c.batch)
			logits := m.Forward(x, true)
			d := tensor.New(logits.Shape()...)
			SoftmaxCrossEntropy(logits, labels, d)
			var extra *tensor.Tensor
			if c.extra {
				extra = tensor.New(c.batch, m.FeatureDim())
				extra.RandNormal(rng, 0.1)
			}
			m.Backward(d, extra)
			got := gradBits(m)
			if runtime.GOARCH != "amd64" {
				t.Skipf("gradient bits %s not compared: the literals are amd64 values", got)
			}
			if got != c.want {
				t.Errorf("gradient bits %s, want %s: the backward arithmetic moved", got, c.want)
			}
		})
	}
}
