package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/prng"
)

// sampleLinks materializes the per-ID derivation for a whole fleet;
// the runtime derives links on demand instead.
func sampleLinks(n int, dist FleetDist, seed int64) []link {
	var scratch prng.Rand
	links := make([]link, n)
	for id := 0; id < n; id++ {
		links[id] = dist.link(id, seed, &scratch)
	}
	return links
}

func TestParseNetDist(t *testing.T) {
	good := map[string]string{
		"none":                        "",
		"":                            "",
		"const:10,25":                 "const:10,25,0",
		"const:10,25,30":              "const:10,25,30",
		"const:inf,inf,0":             "const:Inf,Inf,0",
		"uniform:5,50":                "uniform:5,50,0",
		"uniform:5,50,20":             "uniform:5,50,20",
		"uniform:5,5,20":              "uniform:5,5,20",
		"lognormal:3,0.5":             "lognormal:3,0.5,0",
		"lognormal:-1,0,40":           "lognormal:-1,0,40",
		"tiered":                      "tiered:5,20,80,0.3,20,50,40,0.6,1000,1000,5,0.1",
		"tiered:10,40,20,1":           "tiered:10,40,20,1",
		"tiered:1,2,0,0.5,8,16,0,0.5": "tiered:1,2,0,0.5,8,16,0,0.5",
	}
	for spec, want := range good {
		d, err := ParseNetDist(spec)
		if err != nil {
			t.Fatalf("ParseNetDist(%q): %v", spec, err)
		}
		if want == "" {
			if !d.None() {
				t.Fatalf("ParseNetDist(%q) = %v, want none", spec, d)
			}
			continue
		}
		if d.String() != want {
			t.Fatalf("ParseNetDist(%q).String() = %q want %q", spec, d.String(), want)
		}
	}
	for _, spec := range append([]string{
		"const", "const:10", "const:0,10", "const:10,-1", "const:10,25,-5",
		"uniform", "uniform:10", "uniform:0,10", "uniform:20,10", "uniform:5,inf",
		"uniform:5,50,20,9", "lognormal:3", "lognormal:3,-1", "lognormal:inf,1",
		"tiered:10", "tiered:10,40,20", "tiered:0,40,20,1", "tiered:10,40,-1,1",
		"tiered:10,40,20,0", "dsl:8,1", "const:a,b", "none:1",
	}, nonFinite["bandwidth-dist"]...) {
		if _, err := ParseNetDist(spec); err == nil {
			t.Errorf("ParseNetDist(%q) accepted", spec)
		}
	}
}

func TestNetDistributionsSample(t *testing.T) {
	// Heavy-tailed draws are floored, never zero or negative; the
	// explicit +Inf reference link passes through unclamped.
	for _, p := range sampleLinks(300, mustFleet(ParseNetDist("lognormal:-8,3")), 11) {
		if p.upBps < minNetMbps*1e6 || p.downBps < minNetMbps*1e6 {
			t.Fatalf("sampled link below the clamp floor: %+v", p)
		}
	}
	p := mustFleet(ParseNetDist("const:inf,inf")).link(0, 1, &prng.Rand{})
	if !math.IsInf(p.upBps, 1) || !math.IsInf(p.downBps, 1) || p.rtt != 0 {
		t.Fatalf("infinite link clamped: %+v", p)
	}
	if got := p.transferTime(1<<20, 1<<20); got != 0 {
		t.Fatalf("infinite bandwidth zero-RTT transfer priced at %g", got)
	}
	// Tiered sampling only emits tier links, converted to base units.
	tiers := map[link]bool{newLink(5, 20, 80): true, newLink(20, 50, 40): true, newLink(1000, 1000, 5): true}
	for _, p := range sampleLinks(200, mustFleet(ParseNetDist("tiered")), 5) {
		if !tiers[p] {
			t.Fatalf("tiered fleet sampled off-tier link %+v", p)
		}
	}
	// Sampling is deterministic per seed and drawn from its own stream.
	a := sampleLinks(100, mustFleet(ParseNetDist("lognormal:3,1")), 7)
	b := sampleLinks(100, mustFleet(ParseNetDist("lognormal:3,1")), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("network sampling not deterministic per seed")
		}
	}
}

func TestTransferTimePricesBothDirectionsAndRTT(t *testing.T) {
	p := newLink(10, 25, 40) // 10 Mbps up, 25 Mbps down, 40 ms
	// 1 MB down at 25 Mbps = 0.32 s; 100 kB up at 10 Mbps = 0.08 s.
	want := 0.04 + 1e6*8/25e6 + 1e5*8/10e6
	if got := p.transferTime(1e6, 1e5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("transferTime = %v want %v", got, want)
	}
	if free := p.transferTime(0, 0); free != 0.04 {
		t.Fatalf("empty transfer must cost exactly the RTT, got %v", free)
	}
}

// netSpec is deviceSpec with a network distribution attached.
func netSpec(t *testing.T, net string) RunSpec {
	t.Helper()
	sp := deviceSpec(t, pinAlgo{})
	sp.Latency = mustFleet(ParseLatency("const:3"))
	sp.Network = mustFleet(ParseNetDist(net))
	return sp
}

// The acceptance pin promised by the package doc: an infinite-bandwidth
// zero-RTT fleet adds exactly zero seconds to every dispatch, so the run
// reproduces the unpriced async trajectory bit-for-bit — same metric
// series, same digest, same simulated clock.
func TestInfiniteBandwidthMatchesPlainAsync(t *testing.T) {
	ref, err := Start(netSpec(t, "none"))
	if err != nil {
		t.Fatal(err)
	}
	free, err := Start(netSpec(t, "const:inf,inf,0"))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "infinite-bandwidth fleet", ref, free)
	if ref.Digest() != free.Digest() {
		t.Fatalf("digest %s vs %s", ref.Digest(), free.Digest())
	}
}

// Halving every link's bandwidth exactly doubles each dispatch's
// transfer time and nothing else: the trajectory is untouched (the
// uniform rescale preserves arrival order) and, with zero compute
// latency, every simulated timestamp doubles bit-for-bit.
func TestBandwidthScalesSimTime(t *testing.T) {
	run := func(scale float64) *Result {
		sp := deviceSpec(t, pinAlgo{})
		sp.Network = mustFleet(ParseNetDist(fmt.Sprintf("const:%g,%g,0", 20*scale, 50*scale)))
		res, err := Start(sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, slow := run(1), run(0.5)
	for i := range fast.SimTimeByRound {
		if slow.SimTimeByRound[i] != 2*fast.SimTimeByRound[i] {
			t.Fatalf("agg %d sim time %v want exactly 2x %v", i+1, slow.SimTimeByRound[i], fast.SimTimeByRound[i])
		}
		if slow.Accuracy[i] != fast.Accuracy[i] {
			t.Fatalf("agg %d trajectory diverged under a pure bandwidth rescale", i+1)
		}
	}
	if last := fast.SimTimeByRound[len(fast.SimTimeByRound)-1]; last <= 0 {
		t.Fatal("bandwidth pricing produced no simulated time")
	}
}

// A network distribution needs the simulated clock.
func TestRunSpecRejectsNetworkOnSync(t *testing.T) {
	sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Network: mustFleet(ParseNetDist("tiered"))}
	if err := sp.Validate(); err == nil {
		t.Fatal("network pricing on the sync runtime accepted")
	}
}

// pricedTransport is a minimal sized transport for the core resume pin:
// each upload is perturbed by a hash of (client, round), so the
// transport moves the trajectory without keeping any state, and uplinks
// report half the dense wire size, so the bandwidth pricing path runs on
// measured (not analytic) bytes.
type pricedTransport struct{}

func (p pricedTransport) Down(clientID, round int, global []float64) []float64 {
	enc, _ := p.DownSized(clientID, round, global)
	return enc
}

func (p pricedTransport) Up(clientID, round int, params []float64) []float64 {
	enc, _ := p.UpSized(clientID, round, params)
	return enc
}

func (pricedTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	return global, int64(len(global)) * 4
}

func (pricedTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	out := append([]float64(nil), params...)
	out[0] += float64(prng.Mix(uint64(clientID)<<32|uint64(round))>>54) * 1e-7
	return out, int64(len(params)) * 2
}

// statefulTransport keeps run-long state of its own behind a snapshot
// blob (StatefulTransport), which the runtime does not serialize.
type statefulTransport struct{ pricedTransport }

func (statefulTransport) String() string                { return "stateful-test" }
func (statefulTransport) SnapshotState(io.Writer) error { return nil }
func (statefulTransport) RestoreState(io.Reader) error  { return nil }

// TestSnapshotRefusesStatefulTransport: a transport's own state has no
// place in the stream — an error-feedback residual is a client row — so
// Snapshot must refuse a transport that keeps some, naming it, rather
// than write a stream that resumes without it.
func TestSnapshotRefusesStatefulTransport(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	cfg.Transport = statefulTransport{}
	rs, err := NewRunState(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	err = rs.Snapshot(io.Discard)
	if err == nil {
		t.Fatal("snapshot over a stateful transport accepted")
	}
	if !strings.Contains(err.Error(), "cannot snapshot") || !strings.Contains(err.Error(), "stateful-test") {
		t.Fatalf("error does not name the transport: %v", err)
	}
}

// The core-level resume pin for priced communication: a
// bandwidth-tiered async run through a transport that prices uploads by
// the bytes it reports snapshots at the halfway round and resumes
// bit-for-bit.
func TestResumeEquivalenceAsyncPricedTransport(t *testing.T) {
	build := func() RunSpec {
		sp := RunSpec{Config: snapTestConfig(t, 12), Runtime: RuntimeAsync}
		sp.Concurrency = 3
		sp.BufferSize = 2
		sp.Latency = mustFleet(ParseLatency("const:2"))
		sp.Network = mustFleet(ParseNetDist("tiered"))
		sp.Config.Transport = pricedTransport{}
		return sp
	}
	full, err := Start(build())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRunState(build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if done, err := rs.Step(); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i+1, done, err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	requireParentStream(t, buf.Bytes())
	cont, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "priced-transport snapshot-and-continue", full, cont)

	rs2, err := Resume(bytes.NewReader(buf.Bytes()), ResumeSpec{Spec: build()})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := rs2.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "priced-transport snapshot-and-resume", full, resumed)
	if full.Digest() != resumed.Digest() {
		t.Fatalf("digest %s vs %s", full.Digest(), resumed.Digest())
	}
}
