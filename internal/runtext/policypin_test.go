package runtext_test

import (
	"fmt"
	"math"
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
	wired := func(sel runtext.Selection, transport string) runtext.Selection {
		sel.Transport = transport
		return sel
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
		// The same policies over a transport, so the merge reads uploads
		// a sparse uplink (topk:0.01+ef) or a float32 one (f32) produced;
		// the lock-step row's jobs train from the global the merge writes.
		{"fedavg over topk:0.01+ef", wired(async("fedavg", "", 2), "topk:0.01+ef"), "fedavg", "1f3b1ded9c28dffa"},
		{"fedbuff+maxstale:2 over topk:0.01+ef", wired(async("fedbuff+maxstale:2", "", 2), "topk:0.01+ef"), "fedbuff:0.5+maxstale:2", "5cbec5c7a2113d42"},
		{"fedavg+clip:0.05 over topk:0.01+ef", wired(async("fedavg+clip:0.05", "", 2), "topk:0.01+ef"), "fedavg+clip:0.05", "018ec1fa93ea57bf"},
		{"median over topk:0.01+ef", wired(async("median", "", 5), "topk:0.01+ef"), "median", "fc4129056277d30f"},
		{"trimmedmean:0.25 over topk:0.01+ef", wired(async("trimmedmean:0.25", "", 5), "topk:0.01+ef"), "trimmedmean:0.25", "d1da42c814c805a6"},
		{"krum:0.2 over topk:0.01+ef", wired(async("krum:0.2", "", 5), "topk:0.01+ef"), "krum:0.2", "5b1efc8f86c63fa6"},
		{"fedavg over f32", wired(async("fedavg", "", 2), "f32"), "fedavg", "6d0dceb7b46febab"},
		{"fedbuff+maxstale:2 over f32", wired(async("fedbuff+maxstale:2", "", 2), "f32"), "fedbuff:0.5+maxstale:2", "367fd0fa347caad7"},
		{"fedavg+clip:0.05 over f32", wired(async("fedavg+clip:0.05", "", 2), "f32"), "fedavg+clip:0.05", "d97fcbde67a02f65"},
		{"median over f32", wired(async("median", "", 5), "f32"), "median", "7ea9d9c86dbbdec1"},
		{"trimmedmean:0.25 over f32", wired(async("trimmedmean:0.25", "", 5), "f32"), "trimmedmean:0.25", "1549d6842d253d2c"},
		{"krum:0.2 over f32", wired(async("krum:0.2", "", 5), "f32"), "krum:0.2", "bed959bb9635e033"},
		{"sync default over topk:0.01+ef", runtext.Selection{Transport: "topk:0.01+ef"}, "fedavg", "cf7939b2e57abed6"},
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
			algo, err := algos.Parse("fedtrip")
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

// TestKrumTiePinned makes the order krum sums a pair's squared distances
// in observable: one merge of the krum:0.2 row's run has its five
// uploads rewritten in their first five entries, the rest left as the
// global they merge into, so that the third and fourth are tied at the
// worst score when each distance is summed in coordinate order and not
// when it is summed in any other. The first three are equal; the fourth
// differs from them by 2 in entry 0 and by 2^-26 in entries 1–3, the
// fifth by 2 in entry 4. Summed in order, 4 + 2^-52 rounds back to 4
// three times, both distances are 4 and both scores 8, and the tie goes
// to the lower index, so krum averages the first four; summed from the
// end, the three 2^-52 first make 3·2^-52, which 4 no longer absorbs,
// and krum averages the other four. The digest is an amd64 value.
func TestKrumTiePinned(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 240, Test: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 12, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	algo, err := algos.Parse("fedtrip")
	if err != nil {
		t.Fatal(err)
	}
	sel := runtext.Selection{Runtime: core.RuntimeAsync, Latency: "straggler:1,4,3", Concurrency: 8, Buffer: 5, Policy: "krum:0.2"}
	rs, err := sel.RunSpec(core.Config{
		Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
		Train: train, Test: test, Parts: parts,
		Rounds: 24, ClientsPerRound: 4, BatchSize: 10, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tied := false
	rs.OnUpdates = func(round int, global []float64, updates []core.Update) {
		if round != 3 {
			return
		}
		if len(updates) != 5 {
			t.Fatalf("round 3 merges %d updates, want 5", len(updates))
		}
		small := math.Ldexp(1, -26)
		for i, u := range updates {
			if u.Params == nil {
				t.Fatalf("update %d is held compact; the row rewrites dense uploads", i)
			}
			copy(u.Params, global)
			copy(u.Params[:5], []float64{0, 0, 0, 0, 0})
		}
		copy(updates[3].Params[:4], []float64{2, small, small, small})
		updates[4].Params[4] = 2
		tied = true
	}
	res, err := core.Start(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !tied {
		t.Fatal("round 3 never merged: the tie was not set up")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest %s not compared: the literal is an amd64 value", res.Digest())
	}
	if got, want := res.Digest(), "ee3198919e8baff8"; got != want {
		t.Errorf("digest %s, want %s: krum's distances or its selection moved", got, want)
	}
}
