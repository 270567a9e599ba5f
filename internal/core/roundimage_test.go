package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
)

// roundImageStream runs build's lazy fleet to the end of round 4 and
// returns its snapshot stream, the offsets of its round images and |w|.
func roundImageStream(t *testing.T, build func() core.RunSpec) (stream []byte, images []int, np int) {
	t.Helper()
	rs, err := core.NewRunState(build())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < 4; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	images = core.RoundImages(t, buf.Bytes(), build())
	if len(images) == 0 {
		t.Fatal("the stream holds no round image; the case checks nothing")
	}
	return buf.Bytes(), images, len(rs.Server().Global())
}

// mapImages returns a copy of stream with every entry of every round
// image replaced by f of it.
func mapImages(stream []byte, images []int, np int, f func(float64) float64) []byte {
	out := bytes.Clone(stream)
	for _, at := range images {
		for i := 0; i < np; i++ {
			w := out[at+8*i:]
			binary.LittleEndian.PutUint64(w, math.Float64bits(f(math.Float64frombits(binary.LittleEndian.Uint64(w)))))
		}
	}
	return out
}

// roundedTwin is stream with its round images rounded to float32, which
// is what the f32 downlink of either transport delivers from them.
func roundedTwin(stream []byte, images []int, np int) []byte {
	return mapImages(stream, images, np, func(x float64) float64 { return float64(float32(x)) })
}

// A round image is read for what its clients receive through the run's
// float32 downlink, so bits below float32 resolution are not part of the
// run: an f32 stream and a topk:0.01+ef stream whose every image entry is
// nudged one float64 step toward its float32 image — away from zero when
// it is exact in float32 — each resume to the run state of their twin
// whose images were rounded to float32 first.
func TestHostileRoundImagesBelowF32(t *testing.T) {
	train, test, parts := lazyRowData(t)
	for _, f := range []lazyFleet{lazyFleets[1], lazyFleets[5]} {
		t.Run(f.name, func(t *testing.T) {
			build := func() core.RunSpec { return lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts) }
			stream, images, np := roundImageStream(t, build)
			nudged := mapImages(stream, images, np, func(x float64) float64 {
				to := float64(float32(x))
				if to == x {
					to = math.Copysign(math.Inf(1), x)
				}
				y := math.Nextafter(x, to)
				if math.Float64bits(float64(float32(y))) != math.Float64bits(float64(float32(x))) {
					t.Fatalf("nudging %v to %v moved its float32 image", x, y)
				}
				return y
			})
			want, err := core.StateDigest(roundedTwin(stream, images, np), build())
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.StateDigest(nudged, build())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("the nudged stream resumes to state %s, its rounded twin to %s", got, want)
			}
		})
	}
}

// Round images whose entries are NaN (with a payload a float32 drops),
// ±Inf or ±MaxFloat64 — values past float32's range round to infinity —
// resume, each on its own, to the run state of the twin whose images
// were rounded to float32 first, under an f32 and a topk:0.01+ef
// downlink alike: the run holds what the downlink makes of them.
func TestHostileRoundImagesSpecialValues(t *testing.T) {
	train, test, parts := lazyRowData(t)
	specials := []float64{math.Float64frombits(0x7ff8_dead_beef_0001), -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	fleets := []lazyFleet{lazyFleets[1], lazyFleets[5]}
	if testing.Short() {
		// The two whose float32 image has other bits, on the async
		// stream.
		specials, fleets = specials[:2], fleets[1:]
	}
	for _, f := range fleets {
		t.Run(f.name, func(t *testing.T) {
			build := func() core.RunSpec { return lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts) }
			stream, images, np := roundImageStream(t, build)
			for _, v := range specials {
				// Every seventh entry of every image.
				hostile := bytes.Clone(stream)
				for _, at := range images {
					for i := 0; i < np; i += 7 {
						binary.LittleEndian.PutUint64(hostile[at+8*i:], math.Float64bits(v))
					}
				}
				want, err := core.StateDigest(roundedTwin(hostile, images, np), build())
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.StateDigest(hostile, build())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("images holding %v resume to state %s, their rounded twin to %s", v, got, want)
				}
			}
		})
	}
}

// TestVersionWidthsPinned pins the width each model version is held at.
// A version is held as what its clients receive: under a transport whose
// Coder's downlink is a float32 image that codes to itself — f32, and the
// dense f32 downlink of q8+ef and topk:0.01+ef — as that image, in
// float32; with no transport, under lossless, which delivers the global
// as it is, or under a downlink whose float32 image is no fixed point
// (negatingDown), as a float64 copy. On a lazy fleet, async and in lock
// step (whose rounds record, so they take a snapshot of the global), the
// versions a recipe or a queued job pins at Close are all of the width
// the transport gives, in a number the table holds, and at every
// boundary each live version follows the rule (CheckPins).
func TestVersionWidthsPinned(t *testing.T) {
	train, test, parts := lazyRowData(t)
	cases := []struct {
		runtime, transport string
		wide, narrow       int
	}{
		{"sync", "", 10, 0},
		{"sync", "lossless", 10, 0},
		{"sync", "f32", 0, 10},
		{"sync", "q8+ef", 0, 10},
		{"sync", "topk:0.01+ef", 0, 10},
		{"async", "", 10, 0},
		{"async", "lossless", 10, 0},
		{"async", "f32", 0, 10},
		{"async", "q8+ef", 0, 10},
		{"async", "topk:0.01+ef", 0, 10},
		{"sync", "negating", 10, 0},
		{"async", "negating", 10, 0},
	}
	if testing.Short() {
		// Each width and each reason for it, in one runtime or the other.
		cases = []struct {
			runtime, transport string
			wide, narrow       int
		}{cases[0], cases[2], cases[6], cases[9], cases[11]}
	}
	for _, tc := range cases {
		name := tc.runtime + "/" + tc.transport
		if tc.transport == "" {
			name = tc.runtime + "/none"
		}
		t.Run(name, func(t *testing.T) {
			f := lazyFleet{runtime: tc.runtime, transport: tc.transport, latency: "exp:2"}
			if tc.transport == "negating" {
				f.transport = ""
			}
			sp := lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts)
			if tc.transport == "negating" {
				sp.Transport = negatingDown{}
			}
			rs, err := core.NewRunState(sp)
			if err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				if done, err = rs.Step(); err != nil {
					t.Fatal(err)
				}
				rs.Quiesce()
				if err := rs.CheckPins(); err != nil {
					t.Fatalf("round %d: %v", rs.Round(), err)
				}
			}
			rs.Close()
			if err := rs.CheckPins(); err != nil {
				t.Fatalf("after Close: %v", err)
			}
			if wide, narrow := rs.VersionWidths(); wide != tc.wide || narrow != tc.narrow {
				t.Errorf("%d float64 and %d float32 versions live at Close, pinned %d and %d", wide, narrow, tc.wide, tc.narrow)
			}
		})
	}
}

// negatingDown is a Coder whose downlink is the negated float32 image of
// the global: exact in float32, but coding it again gives the image back
// negated, so a version is never held as it.
type negatingDown struct{}

func (negatingDown) Down(int, int, []float64) []float64 { panic("the runtime calls DownInto") }
func (negatingDown) Up(int, int, []float64) []float64   { panic("the runtime calls UpInto") }

func (negatingDown) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	for i, x := range global {
		dst[i] = -float64(float32(x))
	}
	return int64(4 * len(global))
}

func (negatingDown) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	copy(dst, params)
	return int64(4 * len(params))
}

func (t negatingDown) DownCode(dst []float64, clientID, round int, global []float64) int64 {
	return t.DownInto(dst, clientID, round, global)
}

func (t negatingDown) UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return t.UpInto(dst, clientID, round, params, ref, resid)
}
