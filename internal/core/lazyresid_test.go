package core_test

import (
	"testing"

	"repro/internal/core"
)

// legacyOnly offers only the legacy method set of the transport it
// wraps; legacyNamed prints that transport's spec too, as the
// benchmark's tracer does.
type legacyOnly struct{ core.SizedTransport }

type legacyNamed struct {
	core.SizedTransport
	name string
}

func (l legacyNamed) String() string { return l.name }

// What the lazy regime saves under error feedback: a client whose rows
// are a recipe keeps no residual row either, whatever its fault — in the
// noise case every client draws noise, so every recipe is a noisy
// client's — while every client that has uploaded since keeps one. A legacy
// wrapper that prints its transport's spec finds the same codec by name
// and holds what the transport holds; one without a name has no codec to
// replay a round with, so it holds no recipe, and every client that
// uploaded keeps its row. A wrapped run has the digest of the same run on
// the transport itself.
func TestLazyRowsHoldNoResiduals(t *testing.T) {
	train, test, parts := lazyRowData(t)
	cases := []struct {
		name, transport, faults string
		wrap                    func(core.Transport, string) core.Transport
		lazy                    bool
	}{
		{"topk-ef", "topk:0.01+ef", "", nil, true},
		{"q8-ef noise", "q8+ef", "byz:1,noise:0.1", nil, true},
		{"randk-ef legacy named", "randk:0.05+ef", "", func(tr core.Transport, name string) core.Transport {
			return legacyNamed{tr.(core.SizedTransport), name}
		}, true},
		{"topk-ef legacy unnamed", "topk:0.01+ef", "", func(tr core.Transport, _ string) core.Transport {
			return legacyOnly{tr.(core.SizedTransport)}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(wrap bool) core.RunSpec {
				sp := lazyRowSpec(t, lazyFleet{name: tc.name, runtime: "sync", transport: tc.transport}, "fedtrip:0.4", train, test, parts)
				if wrap && tc.wrap != nil {
					sp.Transport = tc.wrap(sp.Transport, tc.transport)
				}
				if tc.faults != "" {
					var err error
					if sp.Faults, err = core.ParseFaults(tc.faults); err != nil {
						t.Fatal(err)
					}
				}
				return sp
			}
			rs, err := core.NewRunState(build(true))
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for i := 0; i < 6; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			rs.Quiesce()
			recipes := 0
			for _, c := range rs.Server().Clients() {
				switch {
				case c.Lazy():
					recipes++
					if c.HoldsResid() {
						t.Fatalf("client %d holds a recipe and a residual row", c.ID)
					}
				case c.LastRound > 0 && !c.HoldsResid():
					t.Fatalf("client %d uploaded in round %d and holds no residual row", c.ID, c.LastRound)
				}
			}
			if !tc.lazy && recipes != 0 {
				t.Fatalf("%d recipes under a transport with no codec to replay them", recipes)
			}
			if tc.lazy && recipes == 0 {
				t.Fatal("no recipe: the case is not exercised")
			}
			if tc.wrap == nil {
				return
			}
			got, err := rs.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Start(build(false))
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest() != want.Digest() {
				t.Fatalf("wrapped run digest %s, the transport's own %s", got.Digest(), want.Digest())
			}
		})
	}
}
