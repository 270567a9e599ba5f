package core

import (
	"bytes"
	"testing"
)

// TestResumeAcrossTheTargetCrossing resumes runs whose target accuracy is
// reached midway: from a snapshot taken the round before the crossing,
// one taken the round of it, and one taken after Close, once the
// accuracy series is assembled. Each resumed run must report the
// uninterrupted run's rounds-to-target, communication series and digest,
// so whatever a stream says about the target and the cumulative traffic
// has to survive the resume.
func TestResumeAcrossTheTargetCrossing(t *testing.T) {
	cases := []struct {
		name string
		spec func(Config) RunSpec
	}{
		{"sync", func(cfg Config) RunSpec { return RunSpec{Config: cfg} }},
		{"async-fedbuff", func(cfg Config) RunSpec {
			return RunSpec{
				Config:      cfg,
				Runtime:     RuntimeAsync,
				Concurrency: 4,
				BufferSize:  2,
				Latency:     mustFleet(ParseLatency("exp:2")),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 8
			spec := tc.spec(snapTestConfig(t, rounds))
			probe, err := Start(spec)
			if err != nil {
				t.Fatal(err)
			}
			// The target is the first new best accuracy from round 3 on
			// that leaves a round after it, so the crossing has a round
			// before it to snapshot and the run goes on past it.
			cross := 0
			best := max(probe.Accuracy[0], probe.Accuracy[1])
			for r := 3; r < rounds && cross == 0; r++ {
				if acc := probe.Accuracy[r-1]; acc > best {
					cross, spec.TargetAccuracy = r, acc
				} else {
					best = max(best, acc)
				}
			}
			if cross == 0 {
				t.Fatalf("no new best accuracy in rounds 3..%d: %v", rounds-1, probe.Accuracy)
			}
			t.Logf("target %v, crossed at round %d of %d", spec.TargetAccuracy, cross, rounds)
			full, err := Start(spec)
			if err != nil {
				t.Fatal(err)
			}
			if full.RoundsToTarget != cross {
				t.Fatalf("target %v reached at round %d, the probe run crosses it at %d", spec.TargetAccuracy, full.RoundsToTarget, cross)
			}

			for _, snapAt := range []int{cross - 1, cross, rounds} {
				rs, err := NewRunState(spec)
				if err != nil {
					t.Fatal(err)
				}
				for range snapAt {
					if _, err := rs.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if snapAt == rounds {
					rs.Close()
				}
				var buf bytes.Buffer
				if err := rs.Snapshot(&buf); err != nil {
					t.Fatalf("snapshot at round %d: %v", snapAt, err)
				}
				rs.Close()
				resumed, err := Resume(bytes.NewReader(buf.Bytes()), ResumeSpec{Spec: spec})
				if err != nil {
					t.Fatalf("resume at round %d: %v", snapAt, err)
				}
				got, err := resumed.Run()
				if err != nil {
					t.Fatalf("resumed run from round %d: %v", snapAt, err)
				}
				if got.RoundsToTarget != full.RoundsToTarget {
					t.Errorf("resumed from round %d: rounds-to-target %d, want %d", snapAt, got.RoundsToTarget, full.RoundsToTarget)
				}
				if !sameInt64s(got.CommBytesByRound, full.CommBytesByRound) {
					t.Errorf("resumed from round %d: comm series %v, want %v", snapAt, got.CommBytesByRound, full.CommBytesByRound)
				}
				if got.Digest() != full.Digest() {
					t.Errorf("resumed from round %d: digest %s, want %s", snapAt, got.Digest(), full.Digest())
				}
			}
		})
	}
}
