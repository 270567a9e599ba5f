package core_test

import (
	"testing"

	"repro/internal/core"
)

// TestFootprintOwners holds what two lazy async fleets hold at a mid-run
// boundary, owner by owner, to exact counts and bytes: oneSampleRun's
// 48 clients, twelve in flight, a buffer of six, four aggregations (so
// every participation is recorded and pins its version), on one shard
// and joined at dispatch, so every checkout and return happens in one
// order. The footprint is read after the second aggregation. The pools
// are drained first, so their free lists are what the run returned. The
// table is literal: a changed entry is a real change in what a run
// holds.
func TestFootprintOwners(t *testing.T) {
	cases := []struct {
		name, transport string
		want            core.Footprint
	}{
		// Without a transport an upload is |w| = 19,885 float64s, and
		// the two versions the eleven in flight trained from are pinned
		// by their recipes, so each is held as a bitmap patch against its
		// version: a 311-word bitmap and the 4 KiB chunks of the entries
		// it changed, 59 % of a dense upload here, compared where
		// training left it, so no float64 buffer is out. The run has
		// eighteen patches (twelve in flight, six buffered) and carves
		// chunks from float64 vectors of the pool, 38 to a vector: the
		// free ones are the rest of the vectors its patches hold, and its
		// seven other patches. Held dense, the eleven took 1,749,880 B
		// and six float64 vectors (954,480 B) were free.
		{"async none", "", core.Footprint{
			Clients: 48, Built: 22, RegistryBytes: 8_448,
			BitmapPatches: core.Held{N: 11, Bytes: 1_039_080},
			Versions64:    core.Held{N: 2, Bytes: 2 * 8 * 19_885},
			FreeChunks:    core.Held{N: 171 + 7, Bytes: 171*4_096 + 7*8*311},
		}},
		// Over top-k every upload is a patch of indices and values
		// against the float32 image of its version, which is how the
		// version is held; the training transient is the one float64
		// buffer.
		{"async topk:0.01+ef", "topk:0.01+ef", core.Footprint{
			Clients: 48, Built: 22, RegistryBytes: 8_448,
			IndexPatches: core.Held{N: 11, Bytes: 29_568},
			Versions32:   core.Held{N: 2, Bytes: 2 * 4 * 19_885},
			Free64:       core.Held{N: 1, Bytes: 8 * 19_885},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := oneSampleRun(t, tc.transport)
			sp.Rounds, sp.EvalEvery, sp.Shards = 4, 100, 1
			sp.Runtime = core.RuntimeAsync
			sp.Concurrency, sp.BufferSize = 12, 6
			sp.Latency = mustFleet(core.ParseLatency("exp:2"))
			sp.Network = mustFleet(core.ParseNetDist("tiered"))
			rs, err := core.NewRunState(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			core.DrainPools()
			for i := 0; i < 2; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := rs.Footprint(); got != tc.want {
				t.Errorf("footprint after two aggregations\n%#v\ncommitted\n%#v", got, tc.want)
			}
		})
	}
}

// oneSampleRun is uploadRun in fleet100k_churn's shape: 48 clients of
// one sample each, trained in one step, so an upload leaves the weights
// of the units its sample does not activate as its version has them.
func oneSampleRun(t *testing.T, tr string) core.RunSpec {
	t.Helper()
	sp := uploadRun(t, tr)
	sp.Parts = make([][]int, 48)
	for i := range sp.Parts {
		sp.Parts[i] = []int{i}
	}
	sp.BatchSize = 1
	return sp
}
