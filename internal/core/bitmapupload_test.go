package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestBitmapUploadsMatchDense is the differential for uploads held as
// bitmap patches: each run against a twin that holds every upload dense
// (HoldUploadsDense). A lazy async fleet without a transport (every
// participation recorded, so its version is pinned) and a lock-step run
// without one outside the lazy regime (every upload patched against the
// global the merge writes), both in oneSampleRun's shape, must write the
// same snapshot
// stream at a mid-run boundary and finish on the same digest, and the
// async stream, resumed — its queued uploads held as patches again —
// must finish there too. Each run must really have merged patches, and
// its twin none.
func TestBitmapUploadsMatchDense(t *testing.T) {
	cases := []struct {
		name  string
		async bool
	}{
		{"lazy async", true},
		{"lock-step", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(patched *int) core.RunSpec {
				sp := oneSampleRun(t, "")
				sp.Shards = 2
				if tc.async {
					sp.Rounds = 4
					sp.Runtime = core.RuntimeAsync
					sp.Concurrency, sp.BufferSize = 12, 6
					sp.Latency = mustFleet(core.ParseLatency("exp:2"))
				} else {
					sp.Rounds, sp.ClientsPerRound = 8, 6
				}
				sp.OnUpdates = func(_ int, _ []float64, updates []core.Update) {
					for _, u := range updates {
						if u.Params == nil {
							*patched++
						}
					}
				}
				return sp
			}
			run := func(dense bool) (stream []byte, digest string, patched int) {
				rs, err := core.NewRunState(build(&patched))
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				if dense {
					rs.HoldUploadsDense()
				}
				for i := 0; i < 2; i++ {
					if _, err := rs.Step(); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := rs.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if tc.async && dense == (rs.Footprint().BitmapPatches.N > 0) {
					t.Fatalf("dense %t: %d queued uploads held as bitmap patches", dense, rs.Footprint().BitmapPatches.N)
				}
				res, err := rs.Run()
				if err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), res.Digest(), patched
			}
			stream, digest, patched := run(false)
			denseStream, denseDigest, densePatched := run(true)
			if patched == 0 || densePatched != 0 {
				t.Fatalf("%d uploads merged as patches, %d in the dense twin", patched, densePatched)
			}
			if !bytes.Equal(stream, denseStream) {
				t.Fatalf("mid-run snapshot streams differ (%d and %d bytes)", len(stream), len(denseStream))
			}
			if digest != denseDigest {
				t.Fatalf("digest %s, the dense twin %s", digest, denseDigest)
			}
			var unused int
			rs, err := core.Resume(bytes.NewReader(stream), core.ResumeSpec{Spec: build(&unused)})
			if err != nil {
				t.Fatal(err)
			}
			if tc.async && rs.Footprint().BitmapPatches.N == 0 {
				t.Fatal("the resumed run holds no queued upload as a bitmap patch")
			}
			if err := rs.CheckPins(); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := rs.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), stream) {
				t.Fatal("the resumed run writes its stream again differently")
			}
			res, err := rs.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest() != digest {
				t.Fatalf("resumed digest %s, the uninterrupted run %s", res.Digest(), digest)
			}
		})
	}
}
