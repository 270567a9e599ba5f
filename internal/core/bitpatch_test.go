package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestBitPatchRoundTrip holds a bitmap patch to the upload it was taken
// from, bit for bit, through each of its readers: the whole vector
// (Update.Vector), the merge's blocks (mergeRead.block) and its cursor
// (mergeRead.at). The uploads change no entry, one, every
// entry, and counts that fill their last chunk exactly or spill one
// value into the next; they flip ±0 and carry NaNs with distinct
// payloads, on either side. An upload whose bitmap and whole chunks
// would not take fewer bytes than it is refused (and round-trips when
// taken with no limit), and every chunk a patch took is back in its
// store once it is released.
func TestBitPatchRoundTrip(t *testing.T) {
	const n = 5*chunkLen + 37
	words := (n + 63) / 64
	limit := (n - words - 1) / chunkLen * chunkLen // 4 chunks
	rng := rand.New(rand.NewSource(1))
	g := make([]float64, n)
	for i := range g {
		switch i % 7 {
		case 0:
			g[i] = 0
		case 1:
			g[i] = math.Copysign(0, -1)
		case 2:
			g[i] = math.Float64frombits(0x7ff8_0000_0000_0001) // a quiet NaN with a payload
		default:
			g[i] = rng.NormFloat64()
		}
	}
	// other is an entry that differs from v only in its bits where it can:
	// the other zero, another NaN payload, or a nearby number.
	other := func(v float64) float64 {
		switch {
		case v == 0:
			return math.Copysign(0, -math.Copysign(1, v))
		case math.IsNaN(v):
			return math.Float64frombits(math.Float64bits(v) ^ 0x0000_0000_0000_0100)
		}
		return math.Nextafter(v, math.Inf(1))
	}
	cases := []struct {
		name    string
		changed int
		held    bool
	}{
		{"none", 0, true},
		{"one", 1, true},
		{"a chunk exactly", chunkLen, true},
		{"a chunk and one", chunkLen + 1, true},
		{"at the limit", limit, true},
		{"past the limit", limit + 1, false},
		{"every entry", n, false},
	}
	st := newChunkStore(n, 1, 1)
	for _, tc := range cases {
		x := append([]float64(nil), g...)
		for _, i := range rng.Perm(n)[:tc.changed] {
			x[i] = other(x[i])
		}
		p := st.holdBits(x, g)
		if (p != nil) != tc.held {
			t.Fatalf("%s: held as a patch %t, want %t", tc.name, p != nil, tc.held)
		}
		if p == nil {
			// Refused on its bytes, it still round-trips as a patch with
			// no limit.
			p = st.takeBits(x, g, n)
		}
		if want := (tc.changed + chunkLen - 1) / chunkLen; len(p.vals) != want {
			t.Errorf("%s: %d chunks for %d values, want %d", tc.name, len(p.vals), tc.changed, want)
		}
		u := Update{bitmap: p, base: g}
		got := u.Vector(nil)
		if u.size() != n || len(got) != n {
			t.Fatalf("%s: a patch of %d entries reads %d", tc.name, u.size(), len(got))
		}
		blocks := make([]float64, 0, n)
		rd := mergeRead{u: &u}
		for lo := 0; lo < n; lo += chunkLen {
			blocks = append(blocks, rd.block(lo, min(lo+chunkLen, n), make([]float64, chunkLen), g)...)
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("%s: entry %d widened as %x, uploaded %x", tc.name, i, math.Float64bits(got[i]), math.Float64bits(x[i]))
			}
			if math.Float64bits(blocks[i]) != math.Float64bits(x[i]) {
				t.Fatalf("%s: entry %d read in its block as %x, uploaded %x", tc.name, i, math.Float64bits(blocks[i]), math.Float64bits(x[i]))
			}
		}
		u.recycle()
		if st.out != 0 || len(st.patches) != 1 {
			t.Fatalf("%s: %d chunks and %d patches still out after the patch was recycled", tc.name, st.out, 1-len(st.patches))
		}
	}
}
