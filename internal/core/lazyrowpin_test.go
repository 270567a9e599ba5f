package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// lazyFleet is a 200-client fleet whose run merges fewer updates than it
// has clients (10 rounds of 8), so nearly every participant is a
// first-timer whose method row is read by no later round. Each case
// names a runtime and transport; the async ones churn.
type lazyFleet struct {
	name, runtime, transport, latency, devices, network string
	adaptive                                            bool
}

var lazyFleets = []lazyFleet{
	{name: "sync", runtime: "sync"},
	{name: "sync f32", runtime: "sync", transport: "f32"},
	{name: "sync topk-ef", runtime: "sync", transport: "topk:0.01+ef"},
	{name: "async churn", runtime: "async", latency: "straggler:1,10,3"},
	{name: "async churn f32 devices", runtime: "async", transport: "f32", devices: "lognormal:0,0.6", adaptive: true},
	{name: "async churn topk-ef priced", runtime: "async", transport: "topk:0.01+ef", latency: "exp:2", network: "tiered"},
}

// lazyRowSpec builds the case's spec for a method's text.
func lazyRowSpec(t *testing.T, f lazyFleet, method string, train, test *data.Dataset, parts [][]int) core.RunSpec {
	t.Helper()
	algo, err := algos.Parse(method)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := comm.ParseTransport(f.transport)
	if err != nil {
		t.Fatal(err)
	}
	sp := core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
			Train: train, Test: test, Parts: parts,
			Rounds: 10, ClientsPerRound: 8,
			BatchSize: 2, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: algo, Seed: 3, Shards: 2,
			Transport: tr,
		},
		Runtime: core.Runtime(f.runtime),
	}
	if f.runtime != "async" {
		return sp
	}
	sp.Concurrency, sp.BufferSize = 16, 8
	sp.Latency = mustFleet(core.ParseLatency(f.latency))
	sp.Devices = mustFleet(core.ParseDeviceDist(f.devices))
	sp.Network = mustFleet(core.ParseNetDist(f.network))
	if f.devices != "" {
		sp.FlopRate = 1e6
		sp.AdaptiveLocalSteps = f.adaptive
	}
	if sp.Churn, err = core.ParseChurn("markov:20,5"); err != nil {
		t.Fatal(err)
	}
	return sp
}

// lazyRowData is the fleet's corpus: four samples per client, two steps
// a round.
func lazyRowData(t *testing.T) (train, test *data.Dataset, parts [][]int) {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 800, Test: 100, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	parts, err = partition.Partition(partition.IID(), train.Y, train.Classes, 200, 4, rand.New(rand.NewSource(47)))
	if err != nil {
		t.Fatal(err)
	}
	return train, test, parts
}

// TestLazyRowStreamsPinned pins, for FedTrip and MOON on each fleet, the
// uninterrupted digest, the length and SHA-256 of a snapshot taken after
// round 4 — when most clients holding a row have participated once — and
// the digest of the run resumed from it. A snapshot writes each client's
// row, or the recipe and round image that rebuild it, so the hash holds
// each first participation's round bit for bit. Streams are trained
// float64s: hashes on amd64 only, lengths and digests everywhere.
func TestLazyRowStreamsPinned(t *testing.T) {
	pins := map[string]struct {
		digest, sha256 string
		length         int
	}{
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "c0f086ff17ec41c225277acd07a8bfb13dcfc557a16854ff66fc759f6a80085b", 966770},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "99b9a7308f926d903fcebc02d31864e0cbb18f72a0c45091130cdbc7e01b7fcb", 1603121},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "7de9205a35f8f42c3840f550306b5f435630c404190572a81eada51c364884a7", 6534610},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "6e1b8840611beba7610ce0eec17bf444417d64169451fcc231eae5675031b7fb", 3515864},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "cd5ebe5c2c745a48aacdd12389d6cc201101aa45696cf22771e8bdfed42ac700", 4311334},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "ca4d9da97454f0cd2ef94818e4367c47c310e6b45d36e2ab46e1045ba2d96f48", 11310829},
		"moon/sync":                              {"e33a5cc717a76d25", "da69770776cd033067a11cd561af473c36ce7d495ea0c92dc786f9955aa1478b", 966767},
		"moon/sync f32":                          {"349e7cfc9d337e74", "7bab95775edf02825def1f8641e8444177b1cc6c184240ce5b98f6c6846e0f98", 1603118},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "df67102cbb7b3741b78ce4203a10b38382a70c2aac5091d598c983253c740da9", 6534607},
		"moon/async churn":                       {"354f6684859e7429", "85bd86d66492dd55f6a0437435c80dc95963466f7eb9208ec7b9183e33730e7b", 3515861},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "a399bd40ea06fa1378562ae6dc187e8ca097e3d660edb987fb61ba0654d86918", 4311331},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "b9daf6eb5160fee6a199a294d7c307b3b9f9bf681cc8a91338a948cbd930c574", 11310826},
	}
	train, test, parts := lazyRowData(t)
	for _, method := range []string{"fedtrip:0.4", "moon"} {
		for _, f := range lazyFleets {
			name := method + "/" + f.name
			t.Run(name, func(t *testing.T) {
				build := func() core.RunSpec { return lazyRowSpec(t, f, method, train, test, parts) }
				full, err := core.Start(build())
				if err != nil {
					t.Fatal(err)
				}
				rs, err := core.NewRunState(build())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := rs.Step(); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := rs.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				rs.Close()
				sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				rs2, err := core.Resume(bytes.NewReader(buf.Bytes()), core.ResumeSpec{Spec: build()})
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := rs2.Run()
				if err != nil {
					t.Fatal(err)
				}
				pin := pins[name]
				if got := full.Digest(); got != pin.digest {
					t.Errorf("digest %s, pinned %s", got, pin.digest)
				}
				if got := resumed.Digest(); got != pin.digest {
					t.Errorf("resumed digest %s, pinned %s", got, pin.digest)
				}
				if buf.Len() != pin.length {
					t.Errorf("stream is %d bytes, pinned %d", buf.Len(), pin.length)
				}
				if runtime.GOARCH == "amd64" && sum != pin.sha256 {
					t.Errorf("stream sha256 %s, pinned %s", sum, pin.sha256)
				}
			})
		}
	}
}
