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
// the digest of the run resumed from it. A snapshot writes every client's
// row, so the hash holds each first participation's row bit for bit,
// however the run keeps it. Streams are trained float64s: hashes on amd64
// only, lengths and digests everywhere.
func TestLazyRowStreamsPinned(t *testing.T) {
	pins := map[string]struct {
		digest, sha256 string
		length         int
	}{
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "2919f4a56149ea175db0f1f1974abfaa67c39ae369d45f677c2c610415df6628", 5101659},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "631ba4f241b4251c03aebb621a2e2b0ecfcf139a3cf3b981e9e7f653b616bb6d", 5101658},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "2fef7083bc136d6b8fc80e194553a4240501ec0ccb1e7c0e13009ba0e1aee66e", 10033147},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "a71b0bb670f776fa7b92505732399052846b20cc54b05a90194ef5554f0fd2a4", 9718364},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "1ac2a537e5984b674a8c0881559aeca47f33d51fc5c0d156380347936e89decf", 9559388},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "a593e12cf7b7859aeced8a70f023c8e53f02951292af8335ff6aeae1ce54c3f7", 16558883},
		"moon/sync":                              {"e33a5cc717a76d25", "432fc875a2c2a556b73faad44424a3f4e4d0933fc9682d87a2492ea1ce33185d", 5101656},
		"moon/sync f32":                          {"349e7cfc9d337e74", "6cf4cab816edce02bfa02c21cb2a6be0468eece0821a6b6a9ef007aea706c4a7", 5101655},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "c72d5879350c4521455ac2568f92c2bc567c05ecc088f6bfbb06746c46d63711", 10033144},
		"moon/async churn":                       {"354f6684859e7429", "75f8bd638ba5c17aabcb5d2253e3029b3d955bfa0ba3c3972f35ae7c43af8ea3", 9718361},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "197868fd6794843392bf75f60edc8952a204e0105349ef21595a90021cf2788f", 9559385},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "7255e9c28f3f987823585bd1f66b04439bb89d60d2d794e227da8dda3903abdc", 16558880},
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
