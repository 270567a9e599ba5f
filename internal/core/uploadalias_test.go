package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestHeldUploadsOutliveTheEngine holds every upload a run keeps past its
// training — an index patch over a sparse uplink, a float32 narrowing
// over an f32 one, a dense vector over a lossless one — to its value,
// bit for bit, from one aggregation boundary to the next. On one shard
// every job trains on the one engine whose parameter vector a trained
// upload is coded in, so between two boundaries the next jobs overwrite
// it: an upload that still read the engine's storage, or storage handed
// to another upload, would change. Priced links keep trained jobs in flight
// across the boundaries, and the case fails unless it compared some.
func TestHeldUploadsOutliveTheEngine(t *testing.T) {
	for _, tc := range []struct{ transport, form string }{
		{"topk:0.01+ef", "index patch"},
		{"f32", "narrowed"},
		{"lossless", "dense"},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			sp := uploadRun(t, tc.transport)
			sp.Rounds, sp.EvalEvery, sp.Shards = 40, 100, 1
			sp.Runtime = core.RuntimeAsync
			sp.Concurrency, sp.BufferSize = 12, 4
			sp.Latency = mustFleet(core.ParseLatency("const:0"))
			sp.Network = mustFleet(core.ParseNetDist("tiered"))
			rs, err := core.NewRunState(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			compared := 0
			var before map[[2]int]core.HeldUpload
			for done := false; !done; {
				if done, err = rs.Step(); err != nil {
					t.Fatal(err)
				}
				now := rs.HeldUploads()
				for k, h := range now {
					was, ok := before[k]
					if !ok {
						continue
					}
					if h.Form != tc.form {
						t.Fatalf("client %d's upload is held as %s, the case is for %s", k[0], h.Form, tc.form)
					}
					for i, v := range h.Vector {
						if math.Float64bits(v) != math.Float64bits(was.Vector[i]) {
							t.Fatalf("client %d's held %s reads %v at %d after the next jobs trained, %v before", k[0], h.Form, v, i, was.Vector[i])
						}
					}
					compared++
				}
				before = now
			}
			if compared == 0 {
				t.Fatal("no upload was held across a boundary; the case checks nothing")
			}
			t.Logf("%d held uploads compared", compared)
		})
	}
}
