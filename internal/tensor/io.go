package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization. Every persistent format in the repository — the
// FTRS run snapshot (internal/core) and the FTCK model checkpoint
// (internal/nn) — is little endian and is written and read by one Codec,
// which runs in either direction: a format is described once, as a walk
// that hands the codec a pointer to each field in stream order, and the
// same walk encodes on a Codec from NewEncoder and decodes on one from
// NewDecoder.
//
// Errors are sticky: after the first failure every method is a no-op
// that leaves its argument alone, so a walk stays linear and asks Err or
// Finish once. A stream that ends early fails with "truncated", a value
// that cannot be right with "corrupt", both under the names the decoder
// was given.
//
// The decoding direction follows one rule: it never allocates from a
// length the stream supplied. A slice whose size the caller knows
// (FloatsExact, I64sExact, I32sExact, Vector) is length-checked before a
// byte of it is read and decoded in place; anything else (Str, Floats,
// Rows, I32s) grows, at most doubling, as elements are actually decoded. A
// lying length prefix therefore costs one codecChunk of work, and a
// decode allocates a small multiple of the bytes really present.
type Codec struct {
	w         *bufio.Writer // encoding
	r         *bufio.Reader // decoding
	err       error
	pkg, noun string // error text: "<pkg>: truncated <noun>: ..."
	// buf is the word scratch. It lives here because a local array handed
	// to an io.Writer moves to the heap — once per word written.
	buf [codecChunk]byte
}

// codecChunk is how many bytes the slice methods move per call into the
// buffered stream, and the most a lying length prefix can cost.
const codecChunk = 4096

// NewEncoder returns a Codec that writes to w. Finish flushes it.
func NewEncoder(w io.Writer) *Codec { return &Codec{w: bufio.NewWriter(w)} }

// NewDecoder returns a Codec that reads from r and reports failures as
// "<pkg>: truncated <noun>: ..." and "<pkg>: corrupt <noun>: ...". It may
// read ahead of what it decodes.
func NewDecoder(r io.Reader, pkg, noun string) *Codec {
	return &Codec{r: bufio.NewReader(r), pkg: pkg, noun: noun}
}

// Reading reports the direction: true on a decoder.
func (c *Codec) Reading() bool { return c.r != nil }

// Err returns the first failure, nil so far.
func (c *Codec) Err() error { return c.err }

// Finish ends the walk: it flushes an encoder and returns the first
// failure of either direction.
func (c *Codec) Finish() error {
	if c.err == nil && c.w != nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// Abort records err as the walk's failure unless one is already recorded.
func (c *Codec) Abort(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Fail records a value the stream cannot legitimately hold.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%s: corrupt %s: %s", c.pkg, c.noun, fmt.Sprintf(format, args...))
	}
}

// Raw moves len(b) bytes: b to the stream, or the stream into b.
func (c *Codec) Raw(b []byte) {
	if c.err != nil {
		return
	}
	if c.w != nil {
		_, c.err = c.w.Write(b)
	} else if _, err := io.ReadFull(c.r, b); err != nil {
		c.err = fmt.Errorf("%s: truncated %s: %w", c.pkg, c.noun, err)
	}
}

// U8 is one byte.
func (c *Codec) U8(v *uint8) {
	c.buf[0] = *v
	if c.Raw(c.buf[:1]); c.err == nil {
		*v = c.buf[0]
	}
}

// U64 is one 8-byte word; I64 and F64 are the same word read as a signed
// integer and as float64 bits.
func (c *Codec) U64(v *uint64) {
	binary.LittleEndian.PutUint64(c.buf[:8], *v)
	if c.Raw(c.buf[:8]); c.err == nil {
		*v = binary.LittleEndian.Uint64(c.buf[:8])
	}
}

func (c *Codec) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// Bool is one byte, 0 or 1; any other value is corrupt.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if c.U8(&b); b > 1 {
		c.Fail("bool byte %d", b)
	}
	if c.err == nil {
		*v = b == 1
	}
}

// Num is an int stored as a word; it decodes only values in int32 range.
func (c *Codec) Num(what string, v *int) {
	x := int64(*v)
	if c.I64(&x); x < math.MinInt32 || x > math.MaxInt32 {
		c.Fail("%s value %d out of range", what, x)
	}
	if c.err == nil {
		*v = int(x)
	}
}

// Len is a collection's element count, stored as a word: it writes n, or
// returns the count the stream claims — which bounds a loop, never an
// allocation. A failed decoder returns 0.
func (c *Codec) Len(what string, n int) int {
	x := int64(n)
	if c.I64(&x); x < 0 || x > math.MaxInt {
		c.Fail("%s length %d", what, x)
	}
	if c.err != nil {
		return 0
	}
	return int(x)
}

// LenExact is Len for a count the caller dictates: decoding any other
// count fails before the elements are touched.
func (c *Codec) LenExact(what string, n int) {
	if got := c.Len(what, n); c.err == nil && got != n {
		c.Fail("%s has %d elements, want %d", what, got, n)
	}
}

// Present is the flag in front of an optional section whose presence
// the caller dictates: it writes have, or fails when the stream
// disagrees. It reports whether the walk should enter the section.
func (c *Codec) Present(what string, have bool) bool {
	got := have
	if c.Bool(&got); c.err == nil && got != have {
		c.Fail("%s present=%t, want %t", what, got, have)
	}
	return have && c.err == nil
}

// Magic is a format's leading tag; decoding anything else fails with
// "not a <noun>".
func (c *Codec) Magic(tag string) {
	b := c.buf[:copy(c.buf[:], tag)]
	if c.Raw(b); c.err == nil && string(b) != tag {
		c.err = fmt.Errorf("%s: not a %s (magic %q, want %q)", c.pkg, c.noun, b, tag)
	}
}

// Version is a format's version byte; a decoder reads exactly v.
func (c *Codec) Version(v uint8) {
	got := v
	if c.U8(&got); c.err == nil && got != v {
		c.err = fmt.Errorf("%s: %s version %d, this build reads version %d", c.pkg, c.noun, got, v)
	}
}

// Str is a length-prefixed string.
func (c *Codec) Str(what string, v *string) {
	n := c.Len(what, len(*v))
	if c.err != nil {
		return
	}
	if c.w != nil {
		_, c.err = c.w.WriteString(*v)
		return
	}
	var s []byte
	for len(s) < n && c.err == nil {
		k := min(n-len(s), codecChunk)
		s = growTo(s, len(s)+k, n)
		c.Raw(s[len(s)-k:])
	}
	if c.err == nil {
		*v = string(s)
	}
}

// growTo returns s with length n, preserving its elements. When the
// capacity is short it at most doubles, and never exceeds limit — the
// length the stream claims — so an honest stream ends with an exact fit
// and a lying one allocates in proportion to what it really held.
func growTo[T any](s []T, n, limit int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n, min(max(2*cap(s), n), limit))
	copy(t, s)
	return t
}

// words moves n 8-byte words a chunk at a time: enc fills b from elements
// [lo,hi), dec stores b into them. It stops at the first error.
func (c *Codec) words(n int, enc, dec func(b []byte, lo, hi int)) {
	const per = codecChunk / 8
	for lo := 0; lo < n && c.err == nil; lo += per {
		hi := min(lo+per, n)
		b := c.buf[:8*(hi-lo)]
		if c.w != nil {
			enc(b, lo, hi)
		}
		if c.Raw(b); c.err == nil && c.r != nil {
			dec(b, lo, hi)
		}
	}
}

// floatWords moves n float64 words to or from the slice at returns: at(hi)
// holds at least hi elements, which lets a decoder that does not know n
// grow the slice a chunk at a time instead of trusting the stream.
func (c *Codec) floatWords(n int, at func(hi int) []float64) {
	c.words(n, func(b []byte, lo, hi int) {
		for i, x := range at(hi)[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	}, func(b []byte, lo, hi int) {
		v := at(hi)[lo:hi]
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}

// int32Words stores each int32 as a full word (the FTRS layout) and
// refuses to decode a word outside int32 range.
func (c *Codec) int32Words(what string, n int, at func(hi int) []int32) {
	c.words(n, func(b []byte, lo, hi int) {
		for i, x := range at(hi)[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(x)))
		}
	}, func(b []byte, lo, hi int) {
		v := at(hi)[lo:hi]
		for i := range v {
			x := int64(binary.LittleEndian.Uint64(b[8*i:]))
			if x < math.MinInt32 || x > math.MaxInt32 {
				c.Fail("%s[%d] value %d out of range", what, lo+i, x)
				return
			}
			v[i] = int32(x)
		}
	})
}

// FloatsExact is a length-prefixed float64 vector whose length the caller
// knows: it decodes in place into v.
func (c *Codec) FloatsExact(what string, v []float64) {
	c.LenExact(what, len(v))
	c.floatWords(len(v), func(int) []float64 { return v })
}

// I64sExact is FloatsExact for int64 elements.
func (c *Codec) I64sExact(what string, v []int64) {
	c.LenExact(what, len(v))
	c.words(len(v), func(b []byte, lo, hi int) {
		for i, x := range v[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
	}, func(b []byte, lo, hi int) {
		for i := range v[lo:hi] {
			v[lo+i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}

// I32sExact is FloatsExact for int32 elements.
func (c *Codec) I32sExact(what string, v []int32) {
	c.LenExact(what, len(v))
	c.int32Words(what, len(v), func(int) []int32 { return v })
}

// Floats is a length-prefixed float64 vector of a length only the stream
// knows: decoding replaces *v, growing it as elements arrive.
func (c *Codec) Floats(what string, v *[]float64) { c.Rows(what, v, 1) }

// Rows is Floats for whole rows of width elements: decoding refuses any
// other length before an element is read, and grows *v a row at a time,
// so a one-row vector ends with cap == len.
func (c *Codec) Rows(what string, v *[]float64, width int) {
	n := c.Len(what, len(*v))
	if c.r != nil && c.err == nil {
		if *v = (*v)[:0]; n%width != 0 {
			c.Fail("%s holds %d floats, not a whole number of %d-float rows", what, n, width)
		}
	}
	c.floatWords(n, func(hi int) []float64 {
		if hi > len(*v) {
			*v = growTo(*v, (hi+width-1)/width*width, n)
		}
		return *v
	})
}

// I32s is Floats for int32 elements, of at most limit of them: decoding
// a longer claim fails before any element is read.
func (c *Codec) I32s(what string, v *[]int32, limit int) {
	n := c.Len(what, len(*v))
	if c.r != nil && c.err == nil {
		if *v = (*v)[:0]; n > limit {
			c.Fail("%s has %d elements, at most %d fit", what, n, limit)
		}
	}
	c.int32Words(what, n, func(hi int) []int32 {
		*v = growTo(*v, max(hi, len(*v)), n)
		return *v
	})
}

// Vector is the standalone parameter-vector format: magic "FTV1", a
// uint64 count, count float64 values — FloatsExact under a tag.
func (c *Codec) Vector(what string, v []float64) {
	c.Magic(magicF64)
	c.FloatsExact(what, v)
}

// ExpectEOF fails a decoder whose stream holds anything further.
func (c *Codec) ExpectEOF() {
	if c.err != nil || c.r == nil {
		return
	}
	if _, err := c.r.Peek(1); err != io.EOF {
		c.Fail("trailing bytes")
	}
}

// magicF64 tags the standalone float64 vector (Codec.Vector); magicF32
// the float32 message below.
const magicF64 = "FTV1"

var magicF32 = [4]byte{'F', 'T', 'V', '2'}

// WriteVectorF32/ReadVectorF32 are the float32 message the paper's
// communication accounting assumes: magic "FTV2", a uint64 count, count
// float32 values. No transport marshals it any more (they round in
// place); it stays as the encoding VectorWireSizeF32 prices and as the
// oracle internal/comm's tests pin that rounding against.

// WriteVectorF32 writes v at float32 transport precision (half the bytes;
// this is the precision the paper's MB columns assume).
func WriteVectorF32(w io.Writer, v []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicF32[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(v))); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, x := range v {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(float32(x)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadVectorF32 reads a float32 vector written by WriteVectorF32,
// widening to float64.
func ReadVectorF32(r io.Reader) ([]float64, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tensor: reading vector magic: %w", err)
	}
	if magic != magicF32 {
		return nil, fmt.Errorf("tensor: bad vector magic %q (want %q)", magic, magicF32)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("tensor: reading vector length: %w", err)
	}
	const maxElems = 1 << 31
	if count > maxElems {
		return nil, fmt.Errorf("tensor: vector length %d implausibly large", count)
	}
	v := make([]float64, count)
	buf := make([]byte, 4)
	for i := range v {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("tensor: reading vector element %d: %w", i, err)
		}
		v[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf)))
	}
	return v, nil
}

// VectorWireSizeF32 returns the encoded size in bytes of a float32
// vector message of length n (header + payload), used by the comm layer's
// byte accounting.
func VectorWireSizeF32(n int) int64 { return 4 + 8 + 4*int64(n) }
