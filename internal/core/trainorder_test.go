package core_test

import (
	"bytes"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
)

// A snapshot trains every job still waiting to train, so a run that
// snapshots at a boundary has trained its jobs at other times than one
// that does not. Where the dispatch bound falls short of the priced
// arrival (MOON's forward passes are not declared), pricing moves a job
// in the event heap when it trains, and the heap's array layout then
// follows when jobs trained. The stream must not: for each earlier
// boundary k, a run that also snapshotted at k writes, at boundary 12,
// the stream of a run that snapshotted at 12 alone. FedTrip, whose bound
// is its arrival, is the control row.
func TestSnapshotIgnoresWhenJobsTrained(t *testing.T) {
	const at = 12
	for _, name := range []string{"moon", "fedtrip"} {
		t.Run(name, func(t *testing.T) {
			straight := trainOrderStream(t, name, at, -1)
			for k := 1; k < at; k++ {
				if got := trainOrderStream(t, name, at, k); !bytes.Equal(got, straight) {
					t.Errorf("a run that also snapshotted at boundary %d writes %d bytes at %d unlike the %d of one that did not", k, len(got), at, len(straight))
				}
			}
		})
	}
}

// trainOrderStream runs method name on TestJobFlopsPinned's device-priced
// fleet, widened to eight in flight and merging every arrival, and
// returns its stream at boundary at, having also snapshotted at boundary
// early (none when early < 1).
func trainOrderStream(t *testing.T, name string, at, early int) []byte {
	t.Helper()
	algo, err := algos.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobFlopsFleet(t, algo)
	spec.Concurrency, spec.BufferSize, spec.Rounds = 8, 1, 40
	rs, err := core.NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var buf bytes.Buffer
	for b := 1; b <= at; b++ {
		if done, err := rs.Step(); err != nil || done {
			t.Fatalf("boundary %d: done %v, %v", b, done, err)
		}
		if b == early || b == at {
			buf.Reset()
			if err := rs.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}
