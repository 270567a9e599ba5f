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
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "f9a3218ce859eb71bde6829183d930559461c6185dd307c216494c1ff2bf91ec", 966813},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "5bd1c420f6b470e1804ab5926fa4aa9d194b41e8ffeba6bae40d2f57fedcbefb", 1603164},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "82b159bab51d42c45e992e033dc62c837c9ffa0b2f0c69ae70b81e40512329b3", 6534653},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "a8f06b5e46de6dfff8f2b183e97d7b2d48c38e0e1ab300d48e3420f04530842d", 3515907},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "81ecca3215ae419ecfc8c5d57f7b20c2d0de8ebc98f7414da4e1125e0fb67cc9", 4311377},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "973d133e9ff48b06b88d305e46316398b85bb2d38857c8aadee15252ebca9206", 11310872},
		"moon/sync":                              {"e33a5cc717a76d25", "616a9c1b0d493076fddd3e8d8ab292bdb54284052603ea3f96bd1a00a029d1f2", 966810},
		"moon/sync f32":                          {"349e7cfc9d337e74", "bc7b767d8d2cc13d60f4a1e9fd43bb76114ba724254f51fb9c2403aa3fa3b528", 1603161},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "d8ae29fef75421da7fc392f6c8726d0449cd1e7f1be25ed7c1380b256023c07b", 6534650},
		"moon/async churn":                       {"354f6684859e7429", "b2b4207fa53056db9d3531258b49ef0ccb2b3c586f3799aa1c5125bf8b7f9f5c", 3515904},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "9efcabd7252f7ae86a35a2175760d7e7ccfa4fc0ea7852589cee938e9a5bf639", 4311374},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "5b28ec7b744a16c9a9b50299f3ae4e9402e3ebf08d37cbb30bd6355b7123d709", 11310869},
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
