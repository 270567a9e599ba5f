package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
)

// versionFleets are the two fleets whose float32 versions the tests below
// read back: an async top-k fleet merged by the coordinate-wise median,
// and an f32 lock-step fleet that snapshots after round snapAt and
// resumes from the stream in a fresh run. Both are oneSampleRun's 48
// clients on the quarter-width MLP, |w| = 19,885 (38 blocks of 512 and a
// tail of 429), and both are lazy, so every participation is recorded
// and pins its version.
var versionFleets = []struct {
	name, transport, policy string
	async                   bool
	snapAt                  int
}{
	{"async topk:0.01+ef median", "topk:0.01+ef", "median", true, 0},
	{"sync f32 resumed", "f32", "", false, 3},
}

func versionFleet(t *testing.T, transport, policy string, async bool) core.RunSpec {
	t.Helper()
	sp := oneSampleRun(t, transport)
	sp.EvalEvery, sp.Shards = 100, 2
	if async {
		sp.Rounds = 10
		sp.Runtime = core.RuntimeAsync
		sp.Concurrency, sp.BufferSize = 12, 4
		sp.Latency = mustFleet(core.ParseLatency("exp:2"))
		sp.Network = mustFleet(core.ParseNetDist("tiered"))
	}
	if policy != "" {
		p, err := core.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		sp.Policy = p
	}
	return sp
}

// f32Images records the float32 image of the global model after every
// round, from round 0 on: what a float32 downlink delivers of it.
type f32Images map[int][]float64

func (im f32Images) record(round int, g []float64) {
	img := make([]float64, len(g))
	for i, v := range g {
		img[i] = float64(float32(v))
	}
	im[round] = img
}

// check holds every version rs holds to the image of the global its
// clients were dispatched from, the global after the round before
// theirs, bit for bit.
func (im f32Images) check(t *testing.T, rs *core.RunState, at string) {
	t.Helper()
	rounds, images := rs.HeldVersions()
	if len(images) == 0 {
		t.Fatalf("%s: the run holds no version; the case checks nothing", at)
	}
	for k, img := range images {
		want, ok := im[rounds[k]-1]
		if !ok {
			t.Fatalf("%s: a version of round %d, whose global was not recorded", at, rounds[k])
		}
		for i, v := range img {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s: the version of round %d reads %v at %d, its global's float32 image %v", at, rounds[k], v, i, want[i])
			}
		}
	}
}

// TestVersionImagesExact reads every float32 version the runtime holds
// back through its own reader, at every round boundary and at Close,
// and holds it bit for bit to the float32 image of the global its
// clients were dispatched from, recorded at every round (OnRound). The
// model's |w| is not a multiple of 512, so a version's tail is read
// too; the resumed fleet reads the versions its stream's round images
// were restored into.
func TestVersionImagesExact(t *testing.T) {
	for _, f := range versionFleets {
		t.Run(f.name, func(t *testing.T) {
			images := f32Images{}
			build := func() core.RunSpec {
				sp := versionFleet(t, f.transport, f.policy, f.async)
				sp.OnRound = func(round int, s *core.Server) { images.record(round, s.Global()) }
				return sp
			}
			rs, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			if np := len(rs.Server().Global()); np%512 == 0 {
				t.Fatalf("|w| = %d has no tail block", np)
			}
			images.record(0, rs.Server().Global())
			for done := false; !done; {
				if done, err = rs.Step(); err != nil {
					t.Fatal(err)
				}
				if rs.Round() == f.snapAt {
					var buf bytes.Buffer
					if err := rs.Snapshot(&buf); err != nil {
						t.Fatal(err)
					}
					rs.Close()
					if rs, err = core.Resume(&buf, core.ResumeSpec{Spec: build()}); err != nil {
						t.Fatal(err)
					}
					images.check(t, rs, "resumed")
				}
				if !done {
					images.check(t, rs, "boundary")
				}
			}
			rs.Close()
			images.check(t, rs, "Close")
			if _, narrow := rs.VersionWidths(); narrow == 0 {
				t.Fatal("the run holds no float32 version at Close; the case checks nothing of them")
			}
		})
	}
}

// TestVersionBlocksShared holds the distinct blocks the float32 versions
// of versionFleets hold at Close to an exact table, run through and
// snapshotted after round 3 and resumed in a fresh run: a resumed run
// holds its stream's round images in the blocks an uninterrupted one
// holds them in. The table is literal: a changed entry is a real change
// in what a run's versions share.
func TestVersionBlocksShared(t *testing.T) {
	want := map[string]struct{ versions, blocks int }{
		// The median of four top-k uploads moves few entries: the ten
		// versions' 390 blocks are 201 distinct ones.
		"async topk:0.01+ef median": {10, 201},
		// The mean of four f32 uploads moves an entry of every block,
		// so the eight versions share none: 8 × 39.
		"sync f32 resumed": {8, 312},
	}
	for _, f := range versionFleets {
		t.Run(f.name, func(t *testing.T) {
			for _, snapAt := range []int{0, 3} {
				build := func() core.RunSpec { return versionFleet(t, f.transport, f.policy, f.async) }
				rs, err := core.NewRunState(build())
				if err != nil {
					t.Fatal(err)
				}
				for done := false; !done; {
					if done, err = rs.Step(); err != nil {
						t.Fatal(err)
					}
					if rs.Round() == snapAt && !done {
						var buf bytes.Buffer
						if err := rs.Snapshot(&buf); err != nil {
							t.Fatal(err)
						}
						rs.Close()
						if rs, err = core.Resume(&buf, core.ResumeSpec{Spec: build()}); err != nil {
							t.Fatal(err)
						}
					}
				}
				rs.Close()
				if err := rs.CheckBlocks(); err != nil {
					t.Fatal(err)
				}
				fp := rs.Footprint()
				if w := want[f.name]; fp.Versions32.N != w.versions || fp.Blocks32 != w.blocks {
					t.Errorf("snapshot after round %d: %d float32 versions in %d blocks at Close, pinned %d in %d", snapAt, fp.Versions32.N, fp.Blocks32, w.versions, w.blocks)
				}
			}
		})
	}
}
