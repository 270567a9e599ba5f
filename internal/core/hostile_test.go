package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/prng"
)

// A run snapshot is untrusted input. These tests hand Resume damaged
// streams and hold it to three promises: it never panics, a run it does
// accept can take a Step without panicking, and it allocates no more than
// building the run costs plus a small multiple of the bytes it was really
// given — whatever lengths those bytes claim.

// tinyConfig is the smallest run that still has every section: four
// clients of six 2x2 samples each and a 9-parameter MLP, so a snapshot is
// a few KB and every byte offset of it can be visited.
func tinyConfig(rounds int) Config {
	rng := prng.New(11)
	set := func(n int) *data.Dataset {
		d := &data.Dataset{Kind: data.KindMNIST, Classes: 2, Channels: 1, Height: 2, Width: 2, Y: make([]int, n)}
		d.X = make([]uint8, n*d.SampleSize())
		for i := range d.X {
			d.X[i] = data.EncodePixel(rng.NormFloat64())
		}
		for i := range d.Y {
			d.Y[i] = i % 2
		}
		return d
	}
	parts := make([][]int, 4)
	for c := range parts {
		for i := 0; i < 6; i++ {
			parts[c] = append(parts[c], 6*c+i)
		}
	}
	return Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 2, Width: 2, Classes: 2, Scale: 0.01},
		Train:           set(24),
		Test:            set(8),
		Parts:           parts,
		Rounds:          rounds,
		ClientsPerRound: 2,
		BatchSize:       3,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            NewFedTrip(0.4),
		Seed:            1,
		Shards:          1,
	}
}

// hostileScenario is one of the resume pins' runs at tinyConfig size.
// spec builds a fresh RunSpec (a stateful transport cannot be shared
// between runs); snapAt is the round the stream is taken at.
type hostileScenario struct {
	name   string
	spec   func() RunSpec
	snapAt int
}

func hostileScenarios(t testing.TB) []hostileScenario {
	noise, err := ParseFaults("byz:0.5,noise:0.3")
	if err != nil {
		t.Fatal(err)
	}
	median := mustPolicy(t, "median")
	async := func(mod func(*RunSpec)) func() RunSpec {
		return func() RunSpec {
			sp := RunSpec{Config: tinyConfig(6), Runtime: RuntimeAsync, Concurrency: 3, BufferSize: 2, Latency: mustFleet(ParseLatency("exp:2"))}
			mod(&sp)
			return sp
		}
	}
	return []hostileScenario{
		{"sync", func() RunSpec { return RunSpec{Config: tinyConfig(4)} }, 2},
		{"fedbuff", async(func(*RunSpec) {}), 3},
		{"churn", async(func(sp *RunSpec) {
			sp.Churn = &ChurnModel{MeanUp: 30, MeanDown: 8, Drops: []MassDrop{{At: 2, Fraction: 0.5, Duration: 6}}}
		}), 3},
		{"devices", async(func(sp *RunSpec) {
			sp.Latency, sp.Devices, sp.AdaptiveLocalSteps = FleetDist{}, mustFleet(ParseDeviceDist("tiered")), true
		}), 3},
		{"noise fault", async(func(sp *RunSpec) {
			sp.Policy, sp.Faults = median, noise
		}), 3},
		{"priced transport", async(func(sp *RunSpec) {
			sp.Latency, sp.Network, sp.Config.Transport = mustFleet(ParseLatency("const:2")), mustFleet(ParseNetDist("tiered")), newCountingTransport()
		}), 3},
		// MOON reads its client row in BeginRound, from a scratch model.
		{"moon", async(func(sp *RunSpec) { sp.Algo = NewMOON() }), 3},
	}
}

// stream runs the scenario to its snapshot round and returns the FTRS
// bytes.
func (sc hostileScenario) stream(t testing.TB) []byte {
	rs, err := NewRunState(sc.spec())
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	defer rs.Close()
	for i := 0; i < sc.snapAt; i++ {
		if done, err := rs.Step(); err != nil || done {
			t.Fatalf("%s: step %d: done=%t err=%v", sc.name, i+1, done, err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return buf.Bytes()
}

// allocated reports the bytes f allocated (every goroutine's, so callers
// run nothing else meanwhile).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildCost measures what constructing (and closing) the scenario's run
// allocates: the part of a Resume that owes nothing to the stream.
func (sc hostileScenario) buildCost(t testing.TB) uint64 {
	var worst uint64
	for i := 0; i < 3; i++ {
		spec := sc.spec()
		worst = max(worst, allocated(func() {
			rs, err := NewRunState(spec)
			if err != nil {
				t.Fatal(err)
			}
			rs.Close()
		}))
	}
	return worst
}

// resumeHostile feeds input to Resume under the allocation budget and,
// when the stream is accepted, takes one Step. Errors are the expected
// outcome; panics fail the test by themselves.
func (sc hostileScenario) resumeHostile(t testing.TB, input []byte, buildCost uint64, what string) {
	spec := sc.spec()
	var rs *RunState
	var err error
	grew := allocated(func() { rs, err = Resume(bytes.NewReader(input), ResumeSpec{Spec: spec}) })
	if budget := buildCost + 4*uint64(len(input)) + 64<<10; grew > budget {
		t.Fatalf("%s, %s: Resume allocated %d bytes for a %d-byte stream (err=%v); building the run costs %d, so the budget is %d",
			sc.name, what, grew, len(input), err, buildCost, budget)
	}
	if err != nil {
		return
	}
	defer rs.Close()
	if steppable(rs) {
		_, _ = rs.Step() // a diverged or stalled run is an error, not a defect
	}
}

// steppable keeps the harness from waiting on virtual time: a stream may
// legitimately resume with the clock, or an arrival, arbitrarily far
// away (a parked job sits at +Inf), and a churning fleet would then step
// through every availability change on the way there.
func steppable(rs *RunState) bool {
	const horizon = 1e6 // virtual seconds
	far := math.Abs(rs.s.now) > horizon
	for _, j := range rs.run.inflight.js {
		far = far || (!math.IsInf(j.finish, 1) && math.Abs(j.finish) > horizon)
	}
	return !far
}

// TestResumeSurvivesHostileBytes visits every byte offset of each
// scenario's stream twice: once overwriting the eight bytes there with
// the word 0x3FFFFFFF — as a length, a gigabyte-scale lie; as anything
// else, a wrong value — and once truncating the stream there.
func TestResumeSurvivesHostileBytes(t *testing.T) {
	lie := binary.LittleEndian.AppendUint64(nil, 0x3FFFFFFF)
	for _, sc := range hostileScenarios(t) {
		good := sc.stream(t)
		cost := sc.buildCost(t)
		sc.resumeHostile(t, good, cost, "intact")
		stride := 1
		if testing.Short() {
			stride = 7
		}
		for off := 0; off < len(good); off += stride {
			bad := append([]byte(nil), good...)
			copy(bad[off:], lie)
			sc.resumeHostile(t, bad, cost, "lie at "+strconv.Itoa(off))
			sc.resumeHostile(t, good[:off], cost, "cut at "+strconv.Itoa(off))
		}
		t.Logf("%s: %d-byte stream, run construction allocates %d bytes", sc.name, len(good), cost)
	}
}

// TestResumeRefusesLyingHeaderCheaply is the two-line version: a stream
// that is nothing but a header claiming a 2^30-byte fingerprint used to
// cost 2 GiB and seven seconds before it was called truncated.
func TestResumeRefusesLyingHeaderCheaply(t *testing.T) {
	sc := hostileScenarios(t)[0]
	header := append([]byte(snapMagic), snapVersion)
	header = binary.LittleEndian.AppendUint64(header, 1<<30)
	spec := sc.spec()
	var err error
	grew := allocated(func() { _, err = Resume(bytes.NewReader(header), ResumeSpec{Spec: spec}) })
	if err == nil {
		t.Fatal("a 13-byte snapshot was accepted")
	}
	if over := int64(grew) - int64(sc.buildCost(t)); over > 1<<20 {
		t.Fatalf("refusing a 13-byte snapshot allocated %d bytes beyond building the run (%v)", over, err)
	}
}

// FuzzResume mutates the seven scenarios' streams (and the first of them
// cut and lied to) under the same three promises. The first input byte
// picks the scenario the rest is resumed as.
func FuzzResume(f *testing.F) {
	scenarios := hostileScenarios(f)
	costs := make([]uint64, len(scenarios))
	for i, sc := range scenarios {
		good := sc.stream(f)
		costs[i] = sc.buildCost(f)
		f.Add(append([]byte{byte(i)}, good...))
		f.Add(append([]byte{byte(i)}, good[:len(good)/2]...))
	}
	f.Add(binary.LittleEndian.AppendUint64(append([]byte{0}, snapMagic+string(rune(snapVersion))...), 1<<30))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		i := int(in[0]) % len(scenarios)
		scenarios[i].resumeHostile(t, in[1:], costs[i], "fuzz input")
	})
}

// TestSnapshotAllocationsDoNotScaleWithFleet: the walk hands the codec
// pointers to fields the run owns, so a snapshot's allocation count is a
// constant — not one per client, per field or per 8-byte word.
func TestSnapshotAllocationsDoNotScaleWithFleet(t *testing.T) {
	allocs := func(clients int) float64 {
		cfg := tinyConfig(3)
		cfg.Parts = make([][]int, clients)
		for c := range cfg.Parts {
			cfg.Parts[c] = []int{c % cfg.Train.Len()}
		}
		cfg.ClientsPerRound = clients / 2
		rs, err := NewRunState(RunSpec{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := rs.Snapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	// AllocsPerRun counts the whole process, so other goroutines (the
	// evaluator, the race detector's) add a few; one per client adds 504.
	small, large := allocs(8), allocs(512)
	if large > small+64 {
		t.Fatalf("a snapshot of 512 clients allocates %v times, of 8 clients %v", large, small)
	}
}
