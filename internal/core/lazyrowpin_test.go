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
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "15c14a878ca132070c125c1cd8d2b1e049d71355c7a04a2d1467fd325169ea4c", 966770},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "08a04f1d2a54418230729aefc74680982a14bffd94b7a5b173cb0cc0d55b429d", 1603121},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "0621b56e30f4eb085d8ea5943fe4f883ca711f3ada998fc160c2636b0fb06f72", 1762210},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "530076c0f2098a1cb1741c958e93d32f2a0e5217d2329ffb9a854dc7b8a1e700", 3515864},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "b2ba673e845dbcb2078893de6b51d92948260746286f868cf5a25ccd8a1b6f26", 4311334},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "41118732c5f9880ceec1725747ff20fddb7334f439c3f7e44be02b7129876fb4", 4788549},
		"moon/sync":                              {"e33a5cc717a76d25", "b0f3c9f6f1b839912a24fe090a39d722f017e90ce64d8f86a4542e371dfccca8", 966767},
		"moon/sync f32":                          {"349e7cfc9d337e74", "9057c557b2b689622fcd1930a726ffd5c7311c7efdab0e5f5955e537905579f4", 1603118},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "d6254dccf6cb9747aedc153f162d738aaa78cfd3fc8a35a769f1fc7198dc918d", 1762207},
		"moon/async churn":                       {"354f6684859e7429", "d6c7da733ce912994126fd22a2307b1a57288ee356eaff47b9e16c66ec3d9aa5", 3515861},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "451511f81b6b13ccc501db2f6f8bc268e09a2310f58bba242baad93993f74bcd", 4311331},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "a3ce43812cab7fb75978ede6c32c476e846c35f87e9d66a7f2b0b2723814dbc0", 4788546},
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
