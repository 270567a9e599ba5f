package comm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// TestParseTransportAccepts covers every accepted spec form and its
// canonical rendering.
func TestParseTransportAccepts(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical String(); "" means nil transport
	}{
		{"", ""},
		{"none", ""},
		{"f32", "f32"},
		{"lossless", "lossless"},
		{"q8", "q8"},
		{"q1", "q1"},
		{"q16", "q16"},
		{"q8+ef", "q8+ef"},
		{"topk:0.01", "topk:0.01"},
		{"topk:0.010", "topk:0.01"}, // ratio normalizes
		{"topk:1", "topk:1"},
		{"topk:0.01+ef", "topk:0.01+ef"},
		{"randk:0.05", "randk:0.05"},
		{"randk:0.05+ef", "randk:0.05+ef"},
	}
	for _, c := range cases {
		tr, err := ParseTransport(c.spec)
		if err != nil {
			t.Fatalf("ParseTransport(%q): %v", c.spec, err)
		}
		if c.want == "" {
			if tr != nil {
				t.Fatalf("ParseTransport(%q) = %v, want nil", c.spec, tr)
			}
			continue
		}
		str, ok := tr.(fmt.Stringer)
		if !ok {
			t.Fatalf("ParseTransport(%q) transport has no String()", c.spec)
		}
		if got := str.String(); got != c.want {
			t.Fatalf("ParseTransport(%q).String() = %q, want %q", c.spec, got, c.want)
		}
		// Every parsed transport must report per-transfer sizes so the
		// network model can price it.
		if _, ok := tr.(core.SizedTransport); !ok {
			t.Fatalf("ParseTransport(%q) transport is not SizedTransport", c.spec)
		}
	}
}

// TestParseTransportRejects covers malformed specs and the exact error
// vocabulary.
func TestParseTransportRejects(t *testing.T) {
	cases := []struct {
		spec    string
		errPart string
	}{
		{"ef", "ef is a modifier"},
		{"ef+topk:0.01", "ef is a modifier"}, // composition order matters
		{"q8+ef+ef", "duplicate ef"},
		{"topk:0.01+q8", "only one base"},
		{"topk:0.01+q4", "only one base"}, // any width: the is-it-a-base check reads the table
		{"topk:0.01+topk:0.02", "only one base"},
		{"q8+topk", "only one base"},
		{"f32+ef", "requires a lossy compressor"},
		{"lossless+ef", "requires a lossy compressor"},
		{"none+ef", "none composes with nothing"},
		{"q8+", "empty segment"},
		{"+ef", "empty segment"},
		{"q0", "outside [1,16]"},
		{"q17", "outside [1,16]"},
		{"qx", "unknown transport"},
		{"q", "unknown transport"},
		{"q8:3", "q wants 0 args"},
		{"topk", "topk wants 1 args"},
		{"topk:", "is not a number"},
		{"topk:abc", "is not a number"},
		{"topk:0", "outside (0,1]"},
		{"topk:1.5", "outside (0,1]"},
		{"topk:-0.1", "outside (0,1]"},
		{"randk:0", "outside (0,1]"},
		{"randk:nan", "outside (0,1]"},
		{"f32:1", "f32 wants 0 args"},
		{"lossless:x", "is not a number"},
		{"gzip", "unknown transport"},
		{"q8+gzip", "unknown transport"},
	}
	for _, c := range cases {
		_, err := ParseTransport(c.spec)
		if err == nil {
			t.Fatalf("ParseTransport(%q): accepted, want error containing %q", c.spec, c.errPart)
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Fatalf("ParseTransport(%q) error %q missing %q", c.spec, err, c.errPart)
		}
	}
}

// roundTripUp performs one down+up cycle through the in-place transfers,
// as the runtime does: the upload is coded against what the client
// received, with resid as the client's error-feedback row. It returns the
// server-side reconstruction plus the measured uplink bytes.
func roundTripUp(t *testing.T, tr *Transport, resid *[]float64, clientID, round int, global, trained []float64) ([]float64, int64) {
	t.Helper()
	received := make([]float64, len(global))
	if down := tr.DownInto(received, clientID, round, global); down != tensor.VectorWireSizeF32(len(global)) {
		t.Fatalf("downlink bytes %d, want f32 dense %d", down, tensor.VectorWireSizeF32(len(global)))
	}
	out := make([]float64, len(trained))
	return out, tr.UpInto(out, clientID, round, trained, received, resid)
}

// TestCompressedTransportTopK checks sparse reconstruction and that the
// wire size is genuinely sparse.
func TestCompressedTransportTopK(t *testing.T) {
	trI, err := ParseTransport("topk:0.01")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*Transport)
	n := 1000
	global := make([]float64, n)
	trained := make([]float64, n)
	copy(trained, global)
	trained[7] = 5    // the dominant coordinates
	trained[400] = -3 // (k = ceil(0.01*1000) = 10)
	out, up := roundTripUp(t, tr, new([]float64), 0, 1, global, trained)
	if out[7] != 5 || out[400] != -3 {
		t.Fatalf("top-k dropped the dominant coordinates: out[7]=%g out[400]=%g", out[7], out[400])
	}
	if want := int64(8 + 10*8); up != want {
		t.Fatalf("top-k:0.01 uplink %d bytes, want %d", up, want)
	}
	if up >= tensor.VectorWireSizeF32(n)/10 {
		t.Fatalf("sparse uplink %d not ≪ dense %d", up, tensor.VectorWireSizeF32(n))
	}
}

// q8Transport parses the 8-bit quantizing transport the next three tests
// exercise (they moved here with quantize.Transport's deletion: the qN
// codec is the one quantizing transport).
func q8Transport(t *testing.T) *Transport {
	t.Helper()
	tr, err := ParseTransport("q8")
	if err != nil {
		t.Fatal(err)
	}
	return tr.(*Transport)
}

// TestQ8DeltaEncoding: the uplink quantizes the delta against the model
// the client received, so a small local update reconstructs to within
// the 8-bit step of its span, at about a quarter of the float32 bytes.
func TestQ8DeltaEncoding(t *testing.T) {
	tr := q8Transport(t)
	n := 1000
	global := make([]float64, n)
	for i := range global {
		global[i] = float64(i) / 100
	}
	received := make([]float64, n)
	tr.DownInto(received, 0, 1, global)
	// Small local update: delta spans [0, 0.05).
	upload := make([]float64, n)
	for i := range upload {
		upload[i] = received[i] + 0.05*float64(i)/float64(n)
	}
	got := make([]float64, n)
	tr.UpInto(got, 0, 1, upload, received, new([]float64))
	// 8-bit quantization of a 0.05-span delta: max error ~1e-4.
	for i := range upload {
		if e := math.Abs(got[i] - upload[i]); e > 2e-4 {
			t.Fatalf("elem %d reconstruction error %v", i, e)
		}
	}
	// The header amortizes over 1000 elements: ~4x smaller than f32.
	if up := tr.Stats().UpBytes(); up >= tensor.VectorWireSizeF32(n)/3 {
		t.Fatalf("8-bit upload %d bytes not ~4x smaller than f32 %d", up, tensor.VectorWireSizeF32(n))
	}
}

// TestQ8WithoutDownFallsBack: an upload with no recorded downlink has no
// delta base and ships dense float32.
func TestQ8WithoutDownFallsBack(t *testing.T) {
	got := q8Transport(t).Up(7, 1, []float64{math.Pi})
	if got[0] != float64(float32(math.Pi)) {
		t.Fatal("fallback must be float32 shipping")
	}
}

// TestQ8UplinkEndToEnd: FedTrip over an 8-bit uplink must still learn,
// with ~4x less upload traffic than the float32 downlink.
func TestQ8UplinkEndToEnd(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 50, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	tr := q8Transport(t)
	res, err := core.Start(core.RunSpec{Config: core.Config{
		Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train: train, Test: test, Parts: parts,
		Rounds: 10, ClientsPerRound: 3, BatchSize: 10, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9, Algo: core.NewFedTrip(1.0), Seed: 10,
		Transport: tr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy < 0.4 {
		t.Fatalf("8-bit uplink broke learning: best %.3f", res.BestAccuracy)
	}
	if down, up := tr.WireBytes(); up >= down/3 {
		t.Fatalf("8-bit uplink %d bytes vs f32 downlink %d: expected ~4x saving", up, down)
	}
}

// TestErrorFeedbackRecoversDroppedMass: with top-k so aggressive that a
// coordinate is dropped, EF must carry it into the next round's upload.
func TestErrorFeedbackRecoversDroppedMass(t *testing.T) {
	trI, err := ParseTransport("topk:0.001+ef")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*Transport)
	n := 1000 // k = 1: only the largest delta entry ships each round
	global := make([]float64, n)
	trained := make([]float64, n)
	trained[3] = 10 // ships round 1
	trained[9] = 4  // dropped round 1, must ship round 2 via the residual

	resid := new([]float64) // the client's error-feedback row, kept across its rounds
	out, _ := roundTripUp(t, tr, resid, 0, 1, global, trained)
	if out[3] != 10 || out[9] != 0 {
		t.Fatalf("round 1: out[3]=%g out[9]=%g, want 10, 0", out[3], out[9])
	}
	// Round 2: client trains nothing new (upload == received), but the
	// residual still holds the dropped coordinate 9.
	out2, _ := roundTripUp(t, tr, resid, 0, 2, out, out)
	if math.Abs(out2[9]-4) > 1e-6 {
		t.Fatalf("round 2: EF did not resurface dropped coordinate: out2[9]=%g, want 4", out2[9])
	}

	// Without EF the dropped coordinate is gone forever.
	trNoEF, err := ParseTransport("topk:0.001")
	if err != nil {
		t.Fatal(err)
	}
	nf := trNoEF.(*Transport)
	row := new([]float64)
	o1, _ := roundTripUp(t, nf, row, 0, 1, global, trained)
	o2, _ := roundTripUp(t, nf, row, 0, 2, o1, o1)
	if o2[9] != 0 {
		t.Fatalf("no-EF transport resurrected dropped mass: %g", o2[9])
	}
}

// TestRandKDeterministicPerDispatch: rand-k's index draw depends only on
// (clientID, round), so two transports agree and resume needs no state.
func TestRandKDeterministicPerDispatch(t *testing.T) {
	mk := func() *Transport {
		trI, err := ParseTransport("randk:0.05")
		if err != nil {
			t.Fatal(err)
		}
		return trI.(*Transport)
	}
	n := 400
	global := make([]float64, n)
	trained := make([]float64, n)
	for i := range trained {
		trained[i] = float64(i%7) - 3
	}
	a, _ := roundTripUp(t, mk(), new([]float64), 3, 5, global, trained)
	b, _ := roundTripUp(t, mk(), new([]float64), 3, 5, global, trained)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand-k not deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
	c, _ := roundTripUp(t, mk(), new([]float64), 3, 6, global, trained)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rand-k drew identical support for different rounds")
	}
}
