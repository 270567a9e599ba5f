package tensor

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// writeVector and readVector run Codec.Vector — the standalone "FTV1"
// vector — in its two directions. The reader learns the length from the
// caller, not from the stream.
func writeVector(w io.Writer, v []float64) error {
	c := NewEncoder(w)
	c.Vector("vector", v)
	return c.Finish()
}

func readVector(r io.Reader, n int) ([]float64, error) {
	v := make([]float64, n)
	c := NewDecoder(r, "tensor", "vector")
	c.Vector("vector", v)
	return v, c.Finish()
}

func TestVectorRoundTripF64(t *testing.T) {
	v := []float64{0, 1, -1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	var buf bytes.Buffer
	if err := writeVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := readVector(&buf, len(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v) {
		t.Fatalf("len %d", len(got))
	}
	for i := range v {
		if math.IsNaN(v[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("NaN not preserved at %d", i)
			}
			continue
		}
		if got[i] != v[i] {
			t.Fatalf("elem %d: %v != %v", i, got[i], v[i])
		}
	}
}

func TestVectorRoundTripF32(t *testing.T) {
	v := []float64{0, 0.5, -2, 1e10}
	var buf bytes.Buffer
	if err := WriteVectorF32(&buf, v); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != VectorWireSizeF32(len(v)) {
		t.Fatalf("wire size %d want %d", buf.Len(), VectorWireSizeF32(len(v)))
	}
	got, err := ReadVectorF32(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != float64(float32(v[i])) {
			t.Fatalf("elem %d: %v", i, got[i])
		}
	}
}

func TestVectorEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeVector(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readVector(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len %d", len(got))
	}
}

func TestVectorBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVectorF32(&buf, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := readVector(&buf, 1); err == nil {
		t.Fatal("f64 reader accepted f32 stream")
	}
	if _, err := readVector(bytes.NewReader([]byte("junkdata")), 1); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestVectorTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeVector(&buf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readVector(bytes.NewReader(raw[:len(raw)-4]), 3); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := readVector(bytes.NewReader(raw[:6]), 3); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := readVector(bytes.NewReader(nil), 3); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestVectorCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	if err := writeVector(&buf, []float64{1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 4; i < 12; i++ {
		raw[i] = 0xFF // absurd length
	}
	if _, err := readVector(bytes.NewReader(raw), 1); err == nil {
		t.Fatal("corrupt length accepted")
	}
	// A length that is merely not the caller's is refused before the
	// payload is touched, in both directions.
	buf.Reset()
	if err := writeVector(&buf, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		if _, err := readVector(bytes.NewReader(buf.Bytes()), n); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("2-element vector read as %d elements: %v", n, err)
		}
	}
}

// Property: f64 round trip is exact for arbitrary finite vectors.
func TestVectorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		var buf bytes.Buffer
		if err := writeVector(&buf, v); err != nil {
			return false
		}
		got, err := readVector(&buf, n)
		if err != nil || len(got) != n {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
