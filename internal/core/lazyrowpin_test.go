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

// lazyStateDigests pins the run state each of TestLazyRowStreamsPinned's
// mid-run streams resumes to (core.StateDigest: the global, every
// client's rows and error-feedback row as the run rebuilds them, its
// stream, LastRound and FLOPs, the pending jobs, the recorder and the
// clock). Unlike the stream hashes they do not depend on how the stream
// lays a client's rows out, so a snapshot format change that moves no
// state leaves them as they are. Trained float64s: amd64 only.
var lazyStateDigests = map[string]string{
	"fedtrip:0.4/sync":                       "8f8094b215dda742",
	"fedtrip:0.4/sync f32":                   "f65126769df2794a",
	"fedtrip:0.4/sync topk-ef":               "04816625fdffc302",
	"fedtrip:0.4/async churn":                "8b108fa6942c0240",
	"fedtrip:0.4/async churn f32 devices":    "d4d04af2afb799b1",
	"fedtrip:0.4/async churn topk-ef priced": "a458632beca76cc1",
	"moon/sync":                              "867db3fe3f1bc065",
	"moon/sync f32":                          "975ca1e0a89f3e84",
	"moon/sync topk-ef":                      "f186b74ffef967dc",
	"moon/async churn":                       "e3cc81a1c0080b81",
	"moon/async churn f32 devices":           "18bd7ae3485c42e1",
	"moon/async churn topk-ef priced":        "65a23cf94052ab87",
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
		"fedtrip:0.4/sync":                       {"7755c0b1b01ab7a8", "e0288c95c76d3cce4b224dfce4cef024d01bfc7299879053538f4fc64c12f365", 808264},
		"fedtrip:0.4/sync f32":                   {"c1abfe74f3401776", "d5fcffdcb83749179a108335689fd28ba0a5d20624a1d8abc8da1b3ff3a9e190", 808263},
		"fedtrip:0.4/sync topk-ef":               {"0344a2ec84dc8edc", "e4daba1a44c4bbc4feb1f79856f6cc947bff0063650ccffd57923e8b93afec85", 808272},
		"fedtrip:0.4/async churn":                {"e5ae8b627f49df8b", "dfb1a391af20a21e4e746ddc3486b21b3c042ef0bae006431c8855e8f7951fe3", 3198584},
		"fedtrip:0.4/async churn f32 devices":    {"0caf586a25279af2", "94c8cbc43ae988fad6e3e05421a9bc7da4e2999fa8917dcffe6a4f5eb9c419a5", 3198688},
		"fedtrip:0.4/async churn topk-ef priced": {"7d09a95e6790488c", "5f5322fbfd7e1423f96acb46dc756d4a663b2c788b51b323b12a75686d9bc05c", 3198663},
		"moon/sync":                              {"e33a5cc717a76d25", "27de5a8916a14ec39f38993b215b746c49dd525dda7051bb28c25d577207529d", 808261},
		"moon/sync f32":                          {"349e7cfc9d337e74", "1527b452d1ee6b6b24e34faf870c61b1e7347822f97f972e8ab40e18cd2c91ea", 808260},
		"moon/sync topk-ef":                      {"a94951a5100b56bd", "17248a43539674f9618688da55f39125e515f5db9bf375415cdd8211bb289cff", 808269},
		"moon/async churn":                       {"354f6684859e7429", "b3dd22aa9bc3de201164e33bbbd98bfdcc84225f71c3a780825d1d2518a35a8d", 3198581},
		"moon/async churn f32 devices":           {"ac9cf2b0d151143c", "a0f4b3d3bd7618c0deb2a8d9d9627872df0c47d630cabbc59d6ffdbfaeea65c9", 3198685},
		"moon/async churn topk-ef priced":        {"f351c85af837b4b4", "fc60a44e999e0f9531ef0ca02578fe9ed6ca353920d51dc10616c6605efef995", 3198660},
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
				state, err := core.StateDigest(buf.Bytes(), build())
				if err != nil {
					t.Fatal(err)
				}
				if want := lazyStateDigests[name]; runtime.GOARCH == "amd64" && state != want {
					t.Errorf("the stream resumes to state %s, pinned %s", state, want)
				}
			})
		}
	}
}
