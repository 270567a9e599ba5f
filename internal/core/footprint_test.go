package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
)

// TestFootprintOwners holds what two lazy async fleets hold at a mid-run
// boundary, owner by owner, to exact counts and bytes: oneSampleRun's
// 48 clients, twelve in flight, a buffer of six, four aggregations (so
// every participation is recorded and pins its version), on one shard,
// each job trained when it comes due with the loop waiting on it, so
// every checkout and return happens in one order. The footprint is read
// after the second aggregation. The pools
// are drained first, so their free lists are what the run returned. The
// table is literal: a changed entry is a real change in what a run
// holds.
func TestFootprintOwners(t *testing.T) {
	// The one engine holds |w| parameters and gradients, the momentum
	// buffer and one sample's activations (the hidden layer's output and
	// gradient and the logits, 8 × (25 + 25 + 10)); its scratch is its batch, label,
	// permutation and index buffers and, over a transport, the downlink
	// and the error-feedback row. Nothing has evaluated yet, so the
	// tester holds its parameters and batch buffers only.
	oneSampleEngine := func(scratch int64) core.Models {
		return core.Models{N: 1, Params: 2 * 8 * 19_885, Optimizer: 8 * 19_885, Activations: 480, Scratch: scratch}
	}
	unevaluated := core.Models{N: 1, Params: 2 * 8 * 19_885, Scratch: 6_288}
	cases := []struct {
		name, transport, policy string
		want                    core.Footprint
	}{
		// Without a transport the eleven in flight all wait to train
		// (exp:2 latency and the analytic dense transfers price them
		// exactly) and hold only the two versions they will train from.
		// An upload is a bitmap patch against its version, which its
		// recipe pins: a 311-word bitmap and the 4 KiB chunks of the
		// entries it changed, carved from float64 vectors of the pool, 38
		// to a vector. No patch is out at this boundary, so the patches
		// the run has built are free, with no chunk, and the vectors
		// their chunks were carved from are back on the pool's free
		// list. The store builds patches a merge's worth at a time, as
		// the run first takes them: one slab of six, each a 311-word
		// bitmap and a 39-chunk table of 16 B entries. Built up front for
		// the twelve in flight and six buffered, the eighteen bitmaps
		// took 44,784 B (their tables went uncounted). Trained at
		// dispatch, the eleven held 1,039,080 B of patches, and 171 free
		// chunks and 7 free patches were the store's (717,832 B), none
		// the pool's; held dense, they took 1,749,880 B and six float64
		// vectors (954,480 B) were free.
		{"async none", "", "", core.Footprint{
			Clients: 48, Built: 22, RegistryBytes: 8_448,
			Waiting:    11,
			Versions64: core.Held{N: 2, Bytes: 2 * 8 * 19_885},
			Free64:     core.Held{N: 4, Bytes: 4 * 8 * 19_885},
			FreeChunks: core.Held{N: 6, Bytes: 6 * (8*311 + 16*39)},
			Engines:    oneSampleEngine(165_456),
			Tester:     unevaluated,
		}},
		// Over top-k every upload is a patch of indices and values
		// against the float32 image of its version, which is how the
		// version is held; the training transient is the one float64
		// buffer. A transport's bytes are priced on the link, so a
		// dispatch bound is the latency draw and the RTT alone: a job
		// trains then, and holds its upload for the rest of its
		// transfer. One of the eleven does at this boundary; trained at
		// dispatch, all eleven held theirs (29,568 B). A version is 39
		// blocks of 512 entries (2,048 B and a 24 B record each) and a
		// 39-entry table; the weighted mean of six top-k uploads moves
		// an entry in every block, so the two share none. As two float32
		// vectors they took 159,080 B.
		{"async topk:0.01+ef", "topk:0.01+ef", "", core.Footprint{
			Clients: 48, Built: 22, RegistryBytes: 8_448,
			Waiting: 10, Trained: 1,
			IndexPatches: core.Held{N: 1, Bytes: 2_688},
			Versions32:   core.Held{N: 2, Bytes: 78*(2_048+24) + 2*8*39},
			Blocks32:     78,
			Free64:       core.Held{N: 1, Bytes: 8 * 19_885},
			Engines:      oneSampleEngine(483_616),
			Tester:       unevaluated,
			// The widened downlink of a version is server scratch. The
			// one upload scratch set on the transport's free list holds
			// room for the 199 kept indices and values, which slices.Grow
			// rounds up to 224; top-k selects in the upload's own buffer.
			// Before it did, the set held a |w| magnitude column too,
			// 8 × 19,885 B more.
			ServerScratch:    8 * 19_885,
			TransportScratch: 8 * 224,
		}},
		// wire1k_topk_median's merge: the same uploads, merged by the
		// coordinate-wise median of the buffer's six. The median adds to
		// the server's scratch a block of 512 entries of each update, the
		// six rows that point at them and the column it selects in. When
		// it read the updates entry by entry and aggregated into |w|
		// float64s, it added 8 × 19,885 B and the column. The median
		// of six uploads that each moved 1 % of the entries left the
		// global's float32 image as it was in every block, so the second
		// version shares all 39 blocks of the first, where two float32
		// vectors took 159,080 B.
		{"async topk:0.01+ef median", "topk:0.01+ef", "median", core.Footprint{
			Clients: 48, Built: 22, RegistryBytes: 8_448,
			Waiting: 10, Trained: 1,
			IndexPatches:     core.Held{N: 1, Bytes: 2_688},
			Versions32:       core.Held{N: 2, Bytes: 39*(2_048+24) + 2*8*39},
			Blocks32:         39,
			Free64:           core.Held{N: 1, Bytes: 8 * 19_885},
			Engines:          oneSampleEngine(483_616),
			Tester:           unevaluated,
			ServerScratch:    8*19_885 + 6*8*512 + 6*24 + 8*6,
			TransportScratch: 8 * 224,
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
			if tc.policy != "" {
				p, err := core.ParsePolicy(tc.policy)
				if err != nil {
					t.Fatal(err)
				}
				sp.Policy = p
			}
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
	// The paper's CNN in lock-step rounds, in paper_cnn's shape (full
	// width, batch 50, four clients a round, evaluated every round) on
	// one shard, so one engine holds what each of that workload's two
	// holds. The footprint is read after the second round.
	t.Run("sync cnn", func(t *testing.T) {
		sp := cnnRun(t)
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
		want := core.Footprint{
			Clients: 10, Built: 7, RegistryBytes: 1_760,
			Versions64: core.Held{N: 2, Bytes: 2 * 8 * 61_706},
			Free64:     core.Held{N: 4, Bytes: 4 * 8 * 61_706},
			// Four patches, each a 965-word bitmap and a 121-chunk
			// table of 16 B entries (30,880 B before the tables were
			// counted).
			FreeChunks: core.Held{N: 4, Bytes: 4 * (8*965 + 16*121)},
			// The activations are TestHeldActivationBytes' cnn@50 rows.
			// Before Build fused the convolutions with their ReLU and
			// max-pool, they were 3,634,400 and 3,552,800.
			Engines: core.Models{N: 1, Params: 2 * 8 * 61_706, Optimizer: 8 * 61_706, Activations: 926_832, Scratch: 1_621_584},
			Tester:  core.Models{N: 1, Params: 2 * 8 * 61_706, Activations: 845_232, Scratch: 594_400},
		}
		if got := rs.Footprint(); got != want {
			t.Errorf("footprint after two rounds\n%#v\ncommitted\n%#v", got, want)
		}
	})
}

// cnnRun is a lock-step run of the paper's CNN over ten clients of 100
// synthetic MNIST samples each, on one shard.
func cnnRun(t *testing.T) core.RunSpec {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 1000, Test: 100, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int, 10)
	for i := range parts {
		for j := 0; j < 100; j++ {
			parts[i] = append(parts[i], 100*i+j)
		}
	}
	return core.RunSpec{Config: core.Config{
		Model: nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train: train, Test: test, Parts: parts,
		Rounds: 2, ClientsPerRound: 4, EvalEvery: 1,
		BatchSize: 50, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Algo: core.NewFedTrip(0.4), Seed: 1, Shards: 1,
	}}
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
