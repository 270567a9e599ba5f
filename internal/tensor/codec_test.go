package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// record is a format with one field of every kind the codec offers.
type record struct {
	flag    bool
	b       uint8
	u       uint64
	i       int64
	f       float64
	n       int
	name    string
	fixed   []float64 // length known to the reader
	counts  []int64   // length known to the reader
	ids     []int32   // length known to the reader
	grown   []float64 // length only the stream knows
	members []int32   // length only the stream knows, at most 16
	blob    []byte
}

// walk is that format, written down once: the same function encodes r on
// an encoder and fills r on a decoder.
func (r *record) walk(c *Codec) error {
	c.Magic("TEST")
	c.Version(3)
	c.Bool(&r.flag)
	c.U8(&r.b)
	c.U64(&r.u)
	c.I64(&r.i)
	c.F64(&r.f)
	c.Num("n", &r.n)
	c.Str("name", &r.name)
	c.FloatsExact("fixed", r.fixed)
	c.I64sExact("counts", r.counts)
	c.I32sExact("ids", r.ids)
	c.Floats("grown", &r.grown)
	c.I32s("members", &r.members, 16)
	if c.Present("blob", r.blob != nil) {
		c.Blob("blob", func(w io.Writer) error {
			_, err := w.Write(r.blob)
			return err
		}, func(rd io.Reader) (err error) {
			r.blob, err = io.ReadAll(rd)
			return err
		})
	}
	return c.Finish()
}

func sampleRecord() *record {
	long := make([]float64, 3*codecChunk/8+5) // several chunks and a tail
	for i := range long {
		long[i] = float64(i) * 0.5
	}
	return &record{
		flag: true, b: 200, u: math.MaxUint64, i: -7, f: math.Inf(-1), n: math.MinInt32,
		name:    strings.Repeat("fingerprint ", 700), // longer than one chunk
		fixed:   []float64{0, math.NaN(), math.SmallestNonzeroFloat64, -1.5},
		counts:  []int64{math.MinInt64, 0, math.MaxInt64},
		ids:     []int32{math.MaxInt32, -1, 0},
		grown:   long,
		members: []int32{4, 2},
		blob:    []byte("opaque"),
	}
}

// blank is a record as the reader builds it: sized where the format says
// the reader knows the size, empty elsewhere.
func blank() *record {
	return &record{fixed: make([]float64, 4), counts: make([]int64, 3), ids: make([]int32, 3), blob: []byte{}}
}

func encode(t *testing.T, r *record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.walk(NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(r *record, stream []byte) error {
	return r.walk(NewDecoder(bytes.NewReader(stream), "tensor", "test record"))
}

// TestCodecOneWalkBothDirections: what a walk encodes it decodes, bit for
// bit, and the re-encoded bytes are the bytes.
func TestCodecOneWalkBothDirections(t *testing.T) {
	want := sampleRecord()
	stream := encode(t, want)
	got := blank()
	if err := decode(got, stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), stream) {
		t.Fatal("a decoded record re-encodes differently")
	}
	if got.name != want.name || got.n != want.n || !got.flag || got.b != 200 ||
		got.u != want.u || got.i != -7 || !math.IsInf(got.f, -1) || !math.IsNaN(got.fixed[1]) ||
		len(got.grown) != len(want.grown) || cap(got.grown) != len(want.grown) || string(got.blob) != "opaque" {
		t.Fatalf("decoded record differs: %+v", got)
	}
}

// TestCodecLayout pins the byte layout the three formats share: little
// endian, lengths and ints as 8-byte words (int32 elements too), bools
// and the version as single bytes.
func TestCodecLayout(t *testing.T) {
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	yes, n, id, s := true, 258, int32(-2), "ab"
	c.Magic("FTRS")
	c.Version(6)
	c.Bool(&yes)
	c.Num("n", &n)
	c.Str("s", &s)
	c.I32sExact("ids", []int32{id})
	c.FloatsExact("v", []float64{1})
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	want := []byte("FTRS\x06\x01")
	for _, w := range []uint64{258, 2} {
		want = binary.LittleEndian.AppendUint64(want, w)
	}
	want = append(want, "ab"...)
	for _, w := range []uint64{1, ^uint64(1), 1, math.Float64bits(1)} {
		want = binary.LittleEndian.AppendUint64(want, w)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("layout moved:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestCodecRefuses: every way a stream can be wrong has a name, the
// first failure sticks, and later fields are left as they were.
func TestCodecRefuses(t *testing.T) {
	good := encode(t, sampleRecord())
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	patch := func(off int, b []byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[off:], b)
		return out
	}
	const ( // offsets into the sample stream
		offFlag = 5
		offN    = offFlag + 2 + 3*8
		offName = offN + 8
	)
	nameLen := len(sampleRecord().name)
	offFixed := offName + 8 + nameLen
	offIDs := offFixed + 8 + 4*8 + 8 + 3*8
	cases := []struct {
		name   string
		stream []byte
		want   string
	}{
		{"empty", nil, "tensor: truncated test record"},
		{"wrong magic", patch(0, []byte("NOPE")), `not a test record (magic "NOPE", want "TEST")`},
		{"wrong version", patch(4, []byte{9}), "test record version 9, this build reads version 3"},
		{"bool byte", patch(offFlag, []byte{7}), "corrupt test record: bool byte 7"},
		{"int out of range", patch(offN, word(1<<31)), "n value 2147483648 out of range"},
		{"negative length", patch(offName, word(^uint64(0))), "name length -1"},
		{"lying string length", patch(offName, word(1<<40)), "truncated"},
		{"exact length differs", patch(offFixed, word(5)), "fixed has 5 elements, want 4"},
		{"int32 element out of range", patch(offIDs+8, word(1<<33)), "ids[0] value 8589934592 out of range"},
		{"cut mid-vector", good[:offFixed+20], "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := blank()
			r.members = []int32{42}
			err := decode(r, tc.stream)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
			if len(r.members) != 1 || r.members[0] != 42 {
				t.Fatalf("a field after the failure was touched: %v", r.members)
			}
		})
	}

	t.Run("section flag disagrees", func(t *testing.T) {
		r := blank()
		r.blob = nil // this reader expects no blob
		if err := decode(r, good); err == nil || !strings.Contains(err.Error(), "blob present=true, want false") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("too many members", func(t *testing.T) {
		many := sampleRecord()
		many.members = make([]int32, 17)
		if err := decode(blank(), encode(t, many)); err == nil || !strings.Contains(err.Error(), "members has 17 elements, at most 16 fit") {
			t.Fatalf("got %v", err)
		}
	})
}

// TestCodecBlob: the section's reader sees exactly the section and must
// drain it; its own failure is reported under the section's name.
func TestCodecBlob(t *testing.T) {
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	after := 99
	c.Blob("state", func(w io.Writer) error { _, err := w.Write([]byte("0123456789")); return err }, nil)
	c.Num("after", &after)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	read := func(f func(io.Reader) error) (int, error) {
		d := NewDecoder(bytes.NewReader(buf.Bytes()), "tensor", "test record")
		got := 0
		d.Blob("state", nil, f)
		d.Num("after", &got)
		return got, d.Finish()
	}
	if got, err := read(func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if string(b) != "0123456789" {
			t.Errorf("section reader saw %q", b)
		}
		return err
	}); err != nil || got != 99 {
		t.Fatalf("after a drained section: %d, %v", got, err)
	}
	if _, err := read(func(r io.Reader) error { _, err := io.ReadFull(r, make([]byte, 4)); return err }); err == nil || !strings.Contains(err.Error(), "state left 6 bytes unread") {
		t.Fatalf("a half-read section: %v", err)
	}
	boom := errors.New("boom")
	if _, err := read(func(io.Reader) error { return boom }); !errors.Is(err, boom) || !strings.Contains(err.Error(), "tensor: state:") {
		t.Fatalf("a failing section reader: %v", err)
	}
	e := NewEncoder(io.Discard)
	e.Blob("state", func(io.Writer) error { return boom }, nil)
	if err := e.Finish(); !errors.Is(err, boom) {
		t.Fatalf("a failing section writer: %v", err)
	}
}

func TestCodecExpectEOF(t *testing.T) {
	for tail, wantErr := range map[string]bool{"": false, "x": true} {
		d := NewDecoder(strings.NewReader("\x01"+tail), "tensor", "test record")
		var b uint8
		d.U8(&b)
		d.ExpectEOF()
		if err := d.Finish(); (err != nil) != wantErr {
			t.Fatalf("tail %q: %v", tail, err)
		}
	}
}

// TestCodecLyingLengthsAreCheap is the allocation rule: a length prefix
// the stream cannot back costs one chunk, not the length — for each of
// the three kinds that grow as they decode, and at once for the kinds
// that are length-checked first.
func TestCodecLyingLengthsAreCheap(t *testing.T) {
	lie := binary.LittleEndian.AppendUint64(nil, 1<<40)
	few := append(append([]byte(nil), lie...), make([]byte, 100)...)
	for name, read := range map[string]func(*Codec){
		"Str":         func(c *Codec) { var s string; c.Str("s", &s) },
		"Floats":      func(c *Codec) { var v []float64; c.Floats("v", &v) },
		"I32s":        func(c *Codec) { var v []int32; c.I32s("v", &v, math.MaxInt) },
		"FloatsExact": func(c *Codec) { c.FloatsExact("v", make([]float64, 8)) },
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c := NewDecoder(bytes.NewReader(few), "tensor", "test record")
		read(c)
		runtime.ReadMemStats(&ms1)
		if c.Err() == nil {
			t.Errorf("%s: a 2^40-element claim over 100 bytes decoded", name)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 5*codecChunk {
			t.Errorf("%s: refusing it allocated %d bytes", name, grew)
		}
	}
}

// TestCodecFieldsDoNotAllocate: a walk hands the codec pointers to
// fields and slices it already owns; neither direction may allocate per
// field, or a fleet-sized snapshot costs an allocation per client.
func TestCodecFieldsDoNotAllocate(t *testing.T) {
	r := sampleRecord()
	fields := func(c *Codec) {
		c.Bool(&r.flag)
		c.U64(&r.u)
		c.F64(&r.f)
		c.Num("n", &r.n)
		c.FloatsExact("grown", r.grown)
		c.I64sExact("counts", r.counts)
		c.I32sExact("ids", r.ids)
		c.Present("section", true)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if n := testing.AllocsPerRun(20, func() { fields(enc) }); n != 0 {
		t.Errorf("encoding allocates %v times per record", n)
	}
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, "tensor", "test record")
	if n := testing.AllocsPerRun(20, func() { fields(dec) }); n != 0 || dec.Err() != nil {
		t.Errorf("decoding allocates %v times per record (err=%v)", n, dec.Err())
	}
}
