package quantize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func TestTransportDeltaEncoding(t *testing.T) {
	tr, err := NewTransport(8)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	global := make([]float64, n)
	for i := range global {
		global[i] = float64(i) / 100
	}
	received := tr.Down(0, 1, global)
	// Small local update: delta spans [0, 0.05).
	upload := make([]float64, n)
	for i := range upload {
		upload[i] = received[i] + 0.05*float64(i)/float64(n)
	}
	got := tr.Up(0, 1, upload)
	// 8-bit quantization of a 0.05-span delta: max error ~1e-4.
	for i := range upload {
		if e := math.Abs(got[i] - upload[i]); e > 2e-4 {
			t.Fatalf("elem %d reconstruction error %v", i, e)
		}
	}
	// The header amortizes over 1000 elements: ~4x smaller than f32.
	if tr.UpBytes() >= tensor.VectorWireSizeF32(n)/3 {
		t.Fatalf("8-bit upload %d bytes not ~4x smaller than f32 %d", tr.UpBytes(), tensor.VectorWireSizeF32(n))
	}
}

func TestTransportWithoutDownFallsBack(t *testing.T) {
	tr, err := NewTransport(8)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{math.Pi}
	got := tr.Up(7, 1, v)
	if got[0] != float64(float32(math.Pi)) {
		t.Fatal("fallback must be float32 shipping")
	}
}

func TestTransportBadBits(t *testing.T) {
	if _, err := NewTransport(0); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := NewTransport(20); err == nil {
		t.Fatal("20 bits accepted")
	}
}

// End-to-end: FedTrip over an 8-bit uplink must still learn, with ~4x less
// upload traffic than float32.
func TestQuantizedUplinkEndToEnd(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 50, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Start(core.RunSpec{Config: core.Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          10,
		ClientsPerRound: 3,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            core.NewFedTrip(1.0),
		Seed:            10,
		Transport:       tr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy < 0.4 {
		t.Fatalf("8-bit uplink broke learning: best %.3f", res.BestAccuracy)
	}
	if tr.UpBytes() >= tr.DownBytes()/3 {
		t.Fatalf("8-bit uplink %d bytes vs f32 downlink %d: expected ~4x saving", tr.UpBytes(), tr.DownBytes())
	}
}
