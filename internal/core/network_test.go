package core

import (
	"bytes"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// sampleNetProfiles materializes the per-ID derivation for a whole fleet;
// the runtime derives profiles on demand instead.
func sampleNetProfiles(n int, dist NetDistribution, seed int64) []NetProfile {
	var scratch prng.Rand
	profiles := make([]NetProfile, n)
	for id := 0; id < n; id++ {
		profiles[id] = clientNetProfile(id, dist, seed, &scratch)
	}
	return profiles
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
			if d != nil {
				t.Fatalf("ParseNetDist(%q) = %v, want nil", spec, d)
			}
			continue
		}
		if d.String() != want {
			t.Fatalf("ParseNetDist(%q).String() = %q want %q", spec, d.String(), want)
		}
	}
	for _, spec := range []string{
		"const", "const:10", "const:0,10", "const:10,-1", "const:10,25,-5",
		"uniform", "uniform:10", "uniform:0,10", "uniform:20,10", "uniform:5,inf",
		"uniform:5,50,20,9", "lognormal:3", "lognormal:3,-1", "lognormal:inf,1",
		"tiered:10", "tiered:10,40,20", "tiered:0,40,20,1", "tiered:10,40,-1,1",
		"tiered:10,40,20,0", "dsl:8,1", "const:a,b", "none:1",
	} {
		if _, err := ParseNetDist(spec); err == nil {
			t.Errorf("ParseNetDist(%q) accepted", spec)
		}
	}
}

func TestNetDistributionsSample(t *testing.T) {
	// Heavy-tailed draws are floored, never zero or negative; the
	// explicit +Inf reference link passes through unclamped.
	for _, p := range sampleNetProfiles(300, LognormalNet{Mu: -8, Sigma: 3}, 11) {
		if p.UpBps < minNetMbps*1e6 || p.DownBps < minNetMbps*1e6 {
			t.Fatalf("sampled link below the clamp floor: %+v", p)
		}
	}
	inf := math.Inf(1)
	p := ConstNet{Up: inf, Down: inf}.SampleNet(0, nil)
	if !math.IsInf(p.UpBps, 1) || !math.IsInf(p.DownBps, 1) || p.RTT != 0 {
		t.Fatalf("infinite link clamped: %+v", p)
	}
	if got := p.transferTime(1<<20, 1<<20); got != 0 {
		t.Fatalf("infinite bandwidth zero-RTT transfer priced at %g", got)
	}
	// Tiered sampling only emits tier links, converted to base units.
	tiers := map[NetProfile]bool{}
	for _, tier := range DefaultNetTiers().Tiers {
		tiers[netProfile(tier.Up, tier.Down, tier.RTT)] = true
	}
	for _, p := range sampleNetProfiles(200, DefaultNetTiers(), 5) {
		if !tiers[p] {
			t.Fatalf("tiered fleet sampled off-tier link %+v", p)
		}
	}
	// Sampling is deterministic per seed and drawn from its own stream.
	a := sampleNetProfiles(100, LognormalNet{Mu: 3, Sigma: 1}, 7)
	b := sampleNetProfiles(100, LognormalNet{Mu: 3, Sigma: 1}, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("network sampling not deterministic per seed")
		}
	}
}

func TestTransferTimePricesBothDirectionsAndRTT(t *testing.T) {
	p := netProfile(10, 25, 40) // 10 Mbps up, 25 Mbps down, 40 ms
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
func netSpec(t *testing.T, net NetDistribution) RunSpec {
	t.Helper()
	sp := deviceSpec(t, pinAlgo{})
	sp.Latency = ConstantLatency{D: 3}
	sp.Network = net
	return sp
}

// The acceptance pin promised by the package doc: an infinite-bandwidth
// zero-RTT fleet adds exactly zero seconds to every dispatch, so the run
// reproduces the unpriced async trajectory bit-for-bit — same metric
// series, same digest, same simulated clock.
func TestInfiniteBandwidthMatchesPlainAsync(t *testing.T) {
	ref, err := Start(netSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	free, err := Start(netSpec(t, ConstNet{Up: inf, Down: inf, RTT: 0}))
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
		sp.Network = ConstNet{Up: 20 * scale, Down: 50 * scale, RTT: 0}
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
	sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Network: DefaultNetTiers()}
	if err := sp.Validate(); err == nil {
		t.Fatal("network pricing on the sync runtime accepted")
	}
}

// countingTransport is a minimal stateful, sized transport for the core
// resume pin: each upload is perturbed by a per-client participation
// counter — run-long state the FTRS snapshot must carry — and uplinks
// report half the dense wire size, so the bandwidth pricing path runs
// on measured (not analytic) bytes.
type countingTransport struct {
	mu     sync.Mutex
	counts map[int]int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{counts: map[int]int64{}}
}

func (c *countingTransport) Down(clientID, round int, global []float64) []float64 {
	enc, _ := c.DownSized(clientID, round, global)
	return enc
}

func (c *countingTransport) Up(clientID, round int, params []float64) []float64 {
	enc, _ := c.UpSized(clientID, round, params)
	return enc
}

func (c *countingTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	return global, int64(len(global)) * 4
}

func (c *countingTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	c.mu.Lock()
	c.counts[clientID]++
	n := c.counts[clientID]
	c.mu.Unlock()
	out := append([]float64(nil), params...)
	out[0] += float64(n) * 1e-5
	return out, int64(len(params)) * 2
}

func (c *countingTransport) SnapshotState(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc := tensor.NewEncoder(w)
	snapCounts(enc, c.counts)
	return enc.Finish()
}

func (c *countingTransport) RestoreState(r io.Reader) error {
	counts := make(map[int]int64)
	dec := tensor.NewDecoder(r, "core_test", "upload counts")
	snapCounts(dec, counts)
	dec.ExpectEOF()
	if err := dec.Finish(); err != nil {
		return err
	}
	c.mu.Lock()
	c.counts = counts
	c.mu.Unlock()
	return nil
}

// snapCounts is the counting transport's state in either direction: a
// count, then (client, uploads) pairs in client order.
func snapCounts(c *tensor.Codec, counts map[int]int64) {
	word := func(v int64) int64 { c.I64(&v); return v }
	snapMap(c, "count", &counts, func(id int) int { return int(word(int64(id))) }, word)
}

// The core-level resume pin for priced, stateful communication: a
// bandwidth-tiered async run through a transport with run-long state
// snapshots at the halfway round and resumes bit-for-bit, with the
// transport's state restored rather than reset.
func TestResumeEquivalenceAsyncPricedTransport(t *testing.T) {
	build := func() (RunSpec, *countingTransport) {
		sp := RunSpec{Config: snapTestConfig(t, 12), Runtime: RuntimeAsync}
		sp.Concurrency = 3
		sp.BufferSize = 2
		sp.Latency = ConstantLatency{D: 2}
		sp.Network = DefaultNetTiers()
		tr := newCountingTransport()
		sp.Config.Transport = tr
		return sp, tr
	}
	fullSpec, _ := build()
	full, err := Start(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	snapSpec, _ := build()
	rs, err := NewRunState(snapSpec)
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

	resSpec, tr := build()
	rs2, err := Resume(bytes.NewReader(buf.Bytes()), ResumeSpec{Spec: resSpec})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.counts) == 0 {
		t.Fatal("resume did not restore the transport's state")
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
