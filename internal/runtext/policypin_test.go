package runtext_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
)

// TestPolicyDigestsPinned pins the absolute arithmetic of every policy
// text: one small MLP run each, its resolved policy text and its result
// digest compared with literals taken on the tree before core.Policy
// became a value (PR 24's parent). The async rows run under a straggler
// latency with more clients in flight than a merge takes, so staleness is
// non-zero and discounts, cutoffs and mixing rates all bite. The digests
// are amd64 values (like core's stream state digests); the texts hold anywhere.
func TestPolicyDigestsPinned(t *testing.T) {
	async := func(policy, serverLR string, buffer int) runtext.Selection {
		return runtext.Selection{
			Runtime: core.RuntimeAsync, Latency: "straggler:1,4,3", Concurrency: 8, Buffer: buffer,
			Policy: policy, ServerLR: serverLR,
		}
	}
	cases := []struct {
		name         string
		sel          runtext.Selection
		text, digest string
	}{
		{"sync default", runtext.Selection{}, "fedavg", "436577f8598b9306"},
		{"barrier default", runtext.Selection{Runtime: core.RuntimeBarrier, Latency: "straggler:1,4,3"}, "fedbuff:0.5", "ecfecde05227557f"},
		{"async default", async("", "", 2), "fedbuff:0.5", "08dc3dd41e42524a"},
		{"fedavg", async("fedavg", "", 2), "fedavg", "2a3feb84daed442e"},
		{"fedbuff", async("fedbuff", "", 2), "fedbuff:0.5", "08dc3dd41e42524a"},
		{"fedbuff:2", async("fedbuff:2", "", 2), "fedbuff:2", "ab7409ced3fd01df"},
		{"fedasync", async("fedasync", "", 2), "fedasync:0.6,0.5", "746234cfbecc8ad7"},
		{"fedasync:0.4,1", async("fedasync:0.4,1", "", 2), "fedasync:0.4,1", "9fa2eaf4536466cd"},
		{"importance:0.5,0.7", async("importance:0.5,0.7", "", 2), "importance:0.5,0.7", "8962247980cb4d51"},
		{"median", async("median", "", 5), "median", "321b659e270cfe3c"},
		{"trimmedmean:0.25", async("trimmedmean:0.25", "", 5), "trimmedmean:0.25", "57ffd62f213cef9a"},
		{"krum:0.2", async("krum:0.2", "", 5), "krum:0.2", "5e125a9740c7aec3"},
		{"fedbuff+maxstale:2", async("fedbuff+maxstale:2", "", 2), "fedbuff:0.5+maxstale:2", "e0c922a3f9699261"},
		{"fedavg+clip:0.05", async("fedavg+clip:0.05", "", 2), "fedavg+clip:0.05", "dbdec154178283fb"},
		// Neither guard bites at these bounds (the digest is trimmedmean:0.25's):
		// the row pins the composition and its text, the next one the guards.
		{"trimmedmean:0.25+maxstale:8+clip:5", async("trimmedmean:0.25+maxstale:8+clip:5", "", 5), "trimmedmean:0.25+maxstale:8+clip:5", "57ffd62f213cef9a"},
		{"trimmedmean:0.25+maxstale:1+clip:0.05", async("trimmedmean:0.25+maxstale:1+clip:0.05", "", 5), "trimmedmean:0.25+maxstale:1+clip:0.05", "17835c85774ea378"},
		{"fedbuff under invsqrt:1", async("fedbuff", "invsqrt:1", 2), "fedbuff:0.5+lr:invsqrt:1", "9aeb51ff30f5dc9e"},
	}

	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 240, Test: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 12, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algo, err := algos.New("fedtrip", algos.Params{})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := tc.sel.RunSpec(core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: 24, ClientsPerRound: 4, BatchSize: 10, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%s", rs.Policy); got != tc.text {
				t.Errorf("resolved policy prints %q, want %q", got, tc.text)
			}
			res, err := core.Start(rs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sel.Runtime == core.RuntimeAsync {
				var stale float64
				for _, s := range res.MeanStalenessByRound {
					stale += s
				}
				if stale == 0 {
					t.Error("no merged update was stale: the run does not exercise the policy's staleness handling")
				}
			}
			if runtime.GOARCH != "amd64" {
				t.Skipf("digest %s not compared: the literals are amd64 values", res.Digest())
			}
			if got := res.Digest(); got != tc.digest {
				t.Errorf("digest %s, want %s: the policy's arithmetic moved", got, tc.digest)
			}
		})
	}
}
