package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
)

// eager builds every client of a fresh run before its first step, as the
// runtime once did at construction.
func eager(rs *core.RunState) { rs.Server().Clients() }

// requireBuiltAreDispatched holds a run's registry to its rule: the
// clients built are exactly the clients ever dispatched.
func requireBuiltAreDispatched(t *testing.T, label string, rs *core.RunState) {
	t.Helper()
	distinct, _ := rs.Participation()
	if built := rs.Footprint().Built; built != distinct {
		t.Errorf("%s: %d clients built, %d ever dispatched", label, built, distinct)
	}
}

// TestLazyRegistryMatchesEager runs each registry fleet twice — as the
// runtime runs it, building a client at its first dispatch, and with
// every client built before the first step — and requires one
// trajectory: the pinned digest from both, one snapshot stream at the
// boundary, and one state after resuming it. A stream the eager run
// wrote resumes into a run that builds only the clients it holds a
// record of, and finishes on the pinned digest.
func TestLazyRegistryMatchesEager(t *testing.T) {
	train, test, parts := registryData(t)
	for _, f := range registryFleets {
		t.Run(f.name, func(t *testing.T) {
			spec := func() core.RunSpec { return f.spec(t, train, test, parts) }
			pin := registryPins[f.name]
			digests := map[string]string{}
			for _, mode := range []struct {
				name    string
				prepare func(*core.RunState)
			}{{"lazy", nil}, {"eager", eager}} {
				rs, err := core.NewRunState(spec())
				if err != nil {
					t.Fatal(err)
				}
				if mode.prepare != nil {
					mode.prepare(rs)
				} else if built := rs.Footprint().Built; built != 0 {
					t.Errorf("%d clients built at construction", built)
				}
				res, err := rs.Run()
				if err != nil {
					t.Fatal(err)
				}
				digests[mode.name] = res.Digest()
				if mode.prepare == nil {
					requireBuiltAreDispatched(t, "lazy run", rs)
				}
			}
			if digests["lazy"] != digests["eager"] {
				t.Errorf("lazy digest %s, eager %s", digests["lazy"], digests["eager"])
			}
			if runtime.GOARCH == "amd64" && digests["lazy"] != pin.digest {
				t.Errorf("digest %s, pinned %s", digests["lazy"], pin.digest)
			}

			lazy := snapshotAt(t, spec(), f.snapAt, nil)
			eagerStream := snapshotAt(t, spec(), f.snapAt, eager)
			if !bytes.Equal(lazy, eagerStream) {
				t.Fatalf("snapshot streams differ: lazy %d bytes, eager %d", len(lazy), len(eagerStream))
			}
			lazyState, err := core.StateDigest(lazy, spec())
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOARCH == "amd64" && lazyState != pin.state {
				t.Errorf("the stream resumes to state %s, pinned %s", lazyState, pin.state)
			}

			rs, err := core.Resume(bytes.NewReader(eagerStream), core.ResumeSpec{Spec: spec()})
			if err != nil {
				t.Fatal(err)
			}
			requireBuiltAreDispatched(t, "resumed run", rs)
			var again bytes.Buffer
			if err := rs.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), eagerStream) {
				t.Errorf("resume then snapshot writes %d bytes unlike the %d resumed", again.Len(), len(eagerStream))
			}
			res, err := rs.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest() != digests["eager"] {
				t.Errorf("resumed digest %s, uninterrupted %s", res.Digest(), digests["eager"])
			}
			requireBuiltAreDispatched(t, "resumed run at its end", rs)
		})
	}
}
