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
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "ac84c917a54a27cd66773f12a0c51758d1446fffb9cd46567395da0991ae75b6", 966766},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "2667b25b069087843022981778309ab69bf75037953cf123f3fcd9c7160dde64", 966765},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "49efdacdaaa251436a86b9dfe42c4b9deb9ea340a04d3918832dc97661ad748e", 1125854},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "b55b8239056a8ac1d7ebefe50a54b5ccec6124048bfb63ab79dbe4319238f5a5", 3515860},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "dcac9aa2e48504385328d7cecdad8c68bc1d611e6e21e56c88d7576ec3cdf0a4", 3674978},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "daf4b987e0462e89b5b31aa3b5884d85a6068aa5705260abfcc96723c9e8a306", 4152193},
		"moon/sync":                              {"e33a5cc717a76d25", "47bb1ac0c4c036bdc98c1b6aff3d46ced1dfb48619413486302ad1764dcba9db", 966763},
		"moon/sync f32":                          {"349e7cfc9d337e74", "4f138d9be7bbadb1c1ccecbc5e7ec136f57ef9b814996f645740923f6bac914d", 966762},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "d5ea2ed859e537e6d92e2c8b0ea1d0bfd483d0782c3fdf9519bd6e59b1e2954d", 1125851},
		"moon/async churn":                       {"354f6684859e7429", "51042b23f61bbedfb722fd30cde337893258b309355ef744251838198446d7cd", 3515857},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "2cd89a5579f056e74c48293c19e40e4552f995f19c1eab4c55a6de58cfeb18cb", 3674975},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "3cd3c61d9fef69701f1a756ad3260e1050b1307ef1e070988df7cdc02ac989a8", 4152190},
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
