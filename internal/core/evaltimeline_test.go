package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// evalStep is what a run shows about accuracy at one Step boundary: the
// acc= field of that round's progress line and RunState.LastAccuracy.
type evalStep struct {
	line string
	last float64
}

// evalTimeline is a run's accuracy as seen live, step by step, plus the
// per-round series the finished Result carries.
type evalTimeline struct {
	steps []evalStep
	acc   []float64
}

// digest hashes the timeline at full bit precision.
func (tl evalTimeline) digest() string {
	h := fnv.New64a()
	for _, s := range tl.steps {
		fmt.Fprintf(h, "%s %016x|", s.line, math.Float64bits(s.last))
	}
	for _, a := range tl.acc {
		fmt.Fprintf(h, "%016x,", math.Float64bits(a))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (tl evalTimeline) String() string {
	var b strings.Builder
	for i, s := range tl.steps {
		fmt.Fprintf(&b, "\n  step %d: line acc=%s last=%v", i+1, s.line, s.last)
	}
	fmt.Fprintf(&b, "\n  Result.Accuracy=%v", tl.acc)
	return b.String()
}

// timelineRun steps a run to completion. With snapAt > 0 it snapshots
// after that many steps, checks that neither the snapshot nor a resume
// from it moves LastAccuracy, and finishes the run in the resumed
// RunState; the timeline holds the steps of both.
func timelineRun(t *testing.T, spec func() core.RunSpec, snapAt int) evalTimeline {
	t.Helper()
	var line string
	logf := func(format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		if !strings.HasPrefix(s, "round ") {
			return
		}
		_, after, ok := strings.Cut(s, " acc=")
		if !ok {
			t.Fatalf("progress line without acc=: %q", s)
		}
		line, _, _ = strings.Cut(after, " ")
	}
	sp := spec()
	sp.Logf = logf
	rs, err := core.NewRunState(sp)
	if err != nil {
		t.Fatal(err)
	}
	var tl evalTimeline
	step := func(rs *core.RunState) bool {
		line = ""
		done, err := rs.Step()
		if err != nil {
			t.Fatal(err)
		}
		if line == "" {
			t.Fatalf("step %d printed no progress line", rs.Round())
		}
		tl.steps = append(tl.steps, evalStep{line, rs.LastAccuracy()})
		return done
	}
	done := false
	for i := 0; i < snapAt && !done; i++ {
		done = step(rs)
	}
	if snapAt > 0 {
		if done {
			t.Fatalf("run finished before the snapshot at step %d", snapAt)
		}
		before := rs.LastAccuracy()
		var buf bytes.Buffer
		if err := rs.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if got := rs.LastAccuracy(); math.Float64bits(got) != math.Float64bits(before) {
			t.Fatalf("Snapshot moved LastAccuracy %v -> %v", before, got)
		}
		rs.Close()
		sp := spec()
		sp.Logf = logf
		if rs, err = core.Resume(&buf, core.ResumeSpec{Spec: sp}); err != nil {
			t.Fatal(err)
		}
		if got := rs.LastAccuracy(); math.Float64bits(got) != math.Float64bits(before) {
			t.Fatalf("resumed LastAccuracy %v, the snapshotted run had %v", got, before)
		}
	}
	for !done {
		done = step(rs)
	}
	tl.acc = rs.Finish().Accuracy
	rs.Close()
	return tl
}

// TestEvalTimelinePinned pins what a run says about accuracy while it
// runs: each round's progress line and RunState.LastAccuracy, and the
// finished Result.Accuracy. Evaluation runs off the event loop; a round's
// line shows the newest evaluation of an earlier round (one round's lag),
// checked against Result.Accuracy on every target; the digests
// pin the values on amd64. Each run is also snapshotted after every
// round — due and non-due under EvalEvery — and the run resumed from the
// stream must carry on with the uninterrupted run's values.
func TestEvalTimelinePinned(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*core.RunSpec)
		lag    int
		digest string
	}{
		{"sync/evalevery=1", func(sp *core.RunSpec) {}, 1, "fc66e4966a4fecae"},
		{"sync/evalevery=3", func(sp *core.RunSpec) { sp.EvalEvery = 3 }, 1, "582d9420aab044b1"},
		{"async/fedbuff", func(sp *core.RunSpec) {
			sp.Runtime = core.RuntimeAsync
			sp.Concurrency, sp.BufferSize = 4, 2
			sp.Latency = mustFleet(core.ParseLatency("exp:2"))
			sp.EvalEvery = 2
		}, 1, "33adfc9b79c3e82e"},
	}
	for _, tc := range cases {
		spec := func() core.RunSpec {
			algo, err := algos.Parse("fedtrip")
			if err != nil {
				t.Fatal(err)
			}
			sp := core.RunSpec{Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 7, ClientsPerRound: 3,
				BatchSize: 20, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: algo, Seed: 1,
			}}
			tc.mutate(&sp)
			return sp
		}
		t.Run(tc.name, func(t *testing.T) {
			full := timelineRun(t, spec, 0)
			rounds := len(full.steps)
			if len(full.acc) != rounds {
				t.Fatalf("%d steps, %d accuracies", rounds, len(full.acc))
			}
			for i, s := range full.steps {
				want := 0.0
				if j := i - tc.lag; j >= 0 {
					want = full.acc[j]
				}
				if math.Float64bits(s.last) != math.Float64bits(want) {
					t.Fatalf("step %d: LastAccuracy %v, want round %d's %v%v", i+1, s.last, i+1-tc.lag, want, full)
				}
				if s.line != fmt.Sprintf("%.4f", want) {
					t.Fatalf("step %d: line acc=%s, want %.4f%v", i+1, s.line, want, full)
				}
			}
			if got := full.digest(); runtime.GOARCH == "amd64" && got != tc.digest {
				t.Errorf("timeline digest %s, pinned %s%v", got, tc.digest, full)
			}
			for k := 1; k < rounds; k++ {
				resumed := timelineRun(t, spec, k)
				for i, s := range resumed.steps[k:] {
					if want := full.steps[k+i]; s != want {
						t.Fatalf("resumed at %d: step %d shows %+v, the uninterrupted run %+v", k, k+i+1, s, want)
					}
				}
				if resumed.digest() != full.digest() {
					t.Fatalf("resumed at %d: timeline differs%v\nuninterrupted:%v", k, resumed, full)
				}
			}
		})
	}
}
