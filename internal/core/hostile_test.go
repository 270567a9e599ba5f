package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
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

// efTransport is a test-local error-feedback WireTransport: an upload
// ships its delta against ref (plus the client's residual row) rounded to
// a 1/1024 grid, and what the rounding dropped becomes the row — the row
// the runtime owns and snapshots with the client. Uplinks report half
// the dense size, so a priced network runs on measured bytes.
type efTransport struct{}

func (efTransport) Down(int, int, []float64) []float64 { panic("the runtime calls DownInto") }
func (efTransport) Up(int, int, []float64) []float64   { panic("the runtime calls UpInto") }

func (efTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	copy(dst, global)
	return int64(4 * len(global))
}

func (efTransport) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	if len(*resid) != len(params) {
		*resid = make([]float64, len(params))
	}
	row := *resid
	for i := range params {
		d := params[i] - ref[i] + row[i]
		q := math.Round(d*1024) / 1024
		row[i] = d - q
		dst[i] = ref[i] + q
	}
	return int64(2 * len(params))
}

// DownCode is DownInto and UpCode is UpInto: the transport counts
// nothing. With them a recipe replays what its client received and
// rebuilds its error-feedback row too.
func (t efTransport) DownCode(dst []float64, clientID, round int, global []float64) int64 {
	return t.DownInto(dst, clientID, round, global)
}

func (t efTransport) UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return t.UpInto(dst, clientID, round, params, ref, resid)
}

// hostileScenario is one of the resume pins' runs at tinyConfig size.
// spec builds a fresh RunSpec; snapAt is the round the stream is taken
// at.
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
		// The error-feedback rows ride in the client walk.
		{"priced transport", async(func(sp *RunSpec) {
			sp.Latency, sp.Network, sp.Config.Transport = mustFleet(ParseLatency("const:2")), mustFleet(ParseNetDist("tiered")), efTransport{}
		}), 3},
		// MOON reads its client row in BeginRound, from a scratch model.
		{"moon", async(func(sp *RunSpec) { sp.Algo = NewMOON() }), 3},
		// Three rounds of one on four clients: first participations are
		// recipes (seed 5 picks two clients by the snapshot), which under
		// a transport replay what the client received through DownCode.
		{"lazy rows", func() RunSpec {
			cfg := tinyConfig(3)
			cfg.ClientsPerRound, cfg.Transport, cfg.Seed = 1, efTransport{}, 5
			return RunSpec{Config: cfg}
		}, 2},
		// Seven rounds of one on eight clients of three samples: by the
		// snapshot, after six, seed 10 has sent one client out three
		// times, whose rows are a chain of three recipes.
		{"lazy chains", func() RunSpec {
			cfg := tinyConfig(7)
			cfg.Parts = make([][]int, 8)
			for c := range cfg.Parts {
				cfg.Parts[c] = []int{3 * c, 3*c + 1, 3*c + 2}
			}
			cfg.ClientsPerRound, cfg.Transport, cfg.Seed = 1, efTransport{}, 10
			return RunSpec{Config: cfg}
		}, 6},
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
	// A stream cut after a round-image count of 2^30 costs one image.
	sc = lazyRowsScenario(t)
	good := sc.stream(t)
	images, _, _, _ := lazyStreamLayout(t, good, sc.spec())
	cut := binary.LittleEndian.AppendUint64(append([]byte(nil), good[:images]...), 1<<30)
	spec = sc.spec()
	grew = allocated(func() { _, err = Resume(bytes.NewReader(cut), ResumeSpec{Spec: spec}) })
	if err == nil {
		t.Fatal("a stream cut after its round-image count was accepted")
	}
	if over := int64(grew) - int64(sc.buildCost(t)); over > int64(4*len(cut))+1<<20 {
		t.Fatalf("refusing a %d-byte stream claiming 2^30 round images allocated %d bytes beyond building the run (%v)", len(cut), over, err)
	}
}

// TestResumeRefusesBadRecipes doctors the deepest recipe chain and the
// round-image section of the lazy chains scenario's stream, one defect at
// a time.
func TestResumeRefusesBadRecipes(t *testing.T) {
	sc := lazyChainsScenario(t)
	good := sc.stream(t)
	images, imagesEnd, chain, links := lazyStreamLayout(t, good, sc.spec())
	if links < 3 {
		t.Fatalf("the deepest chain holds %d links, want 3", links)
	}
	word := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	patch := func(off int, v int64) []byte {
		bad := append([]byte(nil), good...)
		copy(bad[off:], word(v))
		return bad
	}
	at := func(off int) int64 { return int64(binary.LittleEndian.Uint64(good[off:])) }
	n := at(images)
	// An extra copy of the last image, which no recipe names.
	last := imagesEnd - (imagesEnd-images-8)/int(n)
	unpinned := bytes.Join([][]byte{good[:images], word(n + 1), good[images+8 : imagesEnd], good[last:imagesEnd], good[imagesEnd:]}, nil)
	// Each link's fields, from the start of the chain's first link.
	const steps, rows, round = 8 + 17, 8 + 17 + 8, 8 + 17 + 8 + 8
	first, second, newest := chain+8, chain+8+recipeLink, chain+8+(links-1)*recipeLink
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"no links", "holds a chain of 0 recipes", patch(chain, 0)},
		{"negative link count", "holds a chain of -1 recipes", patch(chain, -1)},
		{"image index past the section", fmt.Sprintf("round image %d of %d", n, n), patch(second, n)},
		{"negative image index", fmt.Sprintf("round image -1 of %d", n), patch(first, -1)},
		{"image no recipe pins", fmt.Sprintf("round image %d is pinned by no recipe", n), unpinned},
		{"negative step budget", "step budget -1", patch(second+steps, -1)},
		{"no rows", "recipe of 0 rows", patch(newest+rows, 0)},
		{"more rows than a Num counts in floats", "recipe of 2147483647 rows", patch(first+rows, math.MaxInt32)},
		{"round 0", "recipe of round 0", patch(first+round, 0)},
		{"a round before its predecessor's", fmt.Sprintf("recipe of round %d after one of round %d", at(newest-recipeLink+round)-1, at(newest-recipeLink+round)),
			patch(newest+round, at(newest-recipeLink+round)-1)},
		{"a chain that ends before the last round", fmt.Sprintf("recipe chain ends at round %d, its last round is %d", at(newest+round)+1, at(newest+round)),
			patch(newest+round, at(newest+round)+1)},
	}
	cost := sc.buildCost(t)
	for _, tc := range cases {
		sc.resumeHostile(t, tc.data, cost, tc.name)
		if _, err := Resume(bytes.NewReader(tc.data), ResumeSpec{Spec: sc.spec()}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestResumeRefusesNonHeapOrder: the event heap and the churn heap are
// restored as read, so a stream whose root sorts after one of its
// children would resume, and heap.Pop would then take a job or an event
// that is not the earliest. Each heap's root key is moved far out, still
// finite, and then made NaN, which sorts neither before nor after its
// children, one heap at a time.
func TestResumeRefusesNonHeapOrder(t *testing.T) {
	sc := hostileScenario{"heaps", func() RunSpec {
		sp := RunSpec{Config: tinyConfig(6), Runtime: RuntimeAsync, Concurrency: 4, BufferSize: 1, Latency: mustFleet(ParseLatency("exp:2"))}
		sp.Churn = &ChurnModel{Drops: []MassDrop{{At: 1e5, Fraction: 0.25}, {At: 2e5, Fraction: 0.25}, {At: 3e5, Fraction: 0.25}}}
		return sp
	}, 3}
	good := sc.stream(t)
	rs, err := Resume(bytes.NewReader(good), ResumeSpec{Spec: sc.spec()})
	if err != nil {
		t.Fatal(err)
	}
	jobs, events := rs.run.inflight.js, rs.s.churn.h.es
	if len(jobs) < 2 || len(events) < 2 {
		rs.Close()
		t.Fatalf("%d jobs in flight and %d churn events: a root with no child checks nothing", len(jobs), len(events))
	}
	roots := []struct {
		name string
		key  float64
	}{{"in-flight job", jobs[0].finish}, {"churn event", events[0].at}}
	rs.Close()
	cost := sc.buildCost(t)
	for _, root := range roots {
		old := binary.LittleEndian.AppendUint64(nil, math.Float64bits(root.key))
		if n := bytes.Count(good, old); n != 1 {
			t.Fatalf("%s: its key %v is written %d times", root.name, root.key, n)
		}
		for _, key := range []float64{1e300, math.NaN()} {
			bad := bytes.Clone(good)
			binary.LittleEndian.PutUint64(bad[bytes.Index(good, old):], math.Float64bits(key))
			sc.resumeHostile(t, bad, cost, root.name)
			if _, err := Resume(bytes.NewReader(bad), ResumeSpec{Spec: sc.spec()}); err == nil || !strings.Contains(err.Error(), "out of heap order") {
				t.Errorf("%s at the root keyed %v: error %v, want one naming the heap order", root.name, key, err)
			}
		}
	}
}

// TestResumeRefusesUnreplayableRecipes: a recipe replays its round from
// what the client received, which a run over a transport without a
// Coder cannot derive again, so such a run records no first
// participation. Resuming the lazy scenario's stream into one — the
// fingerprint names either transport "custom" — is refused, naming the
// first client that holds a recipe.
func TestResumeRefusesUnreplayableRecipes(t *testing.T) {
	sc := lazyRowsScenario(t)
	good := sc.stream(t)
	uncoded := hostileScenario{name: "lazy rows, no coder", spec: func() RunSpec {
		sp := sc.spec()
		sp.Config.Transport = uncodedTransport{}
		return sp
	}}
	_, imagesEnd, _ := streamLayout(t, good, uncoded.spec())
	id := -1
	for i, cl := range walkClients(good, uncoded.spec(), imagesEnd) {
		if cl.recipe {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatal("the stream holds no recipe")
	}
	uncoded.resumeHostile(t, good, uncoded.buildCost(t), "intact")
	want := fmt.Sprintf("client %d holds a recipe", id)
	if _, err := Resume(bytes.NewReader(good), ResumeSpec{Spec: uncoded.spec()}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one naming %q", err, want)
	}
}

// uncodedTransport is efTransport without DownCode and UpCode.
type uncodedTransport struct{}

func (uncodedTransport) Down(int, int, []float64) []float64 { panic("the runtime calls DownInto") }
func (uncodedTransport) Up(int, int, []float64) []float64   { panic("the runtime calls UpInto") }

func (uncodedTransport) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	return efTransport{}.DownInto(dst, clientID, round, global)
}

func (uncodedTransport) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return efTransport{}.UpInto(dst, clientID, round, params, ref, resid)
}

// lazyRowsScenario is the hostile scenario whose stream holds recipes.
func lazyRowsScenario(t *testing.T) hostileScenario { return namedScenario(t, "lazy rows") }

// lazyChainsScenario is the one whose stream holds a chain of three.
func lazyChainsScenario(t *testing.T) hostileScenario { return namedScenario(t, "lazy chains") }

func namedScenario(t *testing.T, name string) hostileScenario {
	for _, sc := range hostileScenarios(t) {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no %s scenario", name)
	return hostileScenario{}
}

// lazyStreamLayout walks an FTRS stream to its round-image section and
// returns where the section starts and ends, and where the deepest
// recipe chain in the client walk starts (its link count) and how many
// links it holds.
func lazyStreamLayout(t *testing.T, b []byte, spec RunSpec) (images, imagesEnd, chain, links int) {
	t.Helper()
	images, imagesEnd, _ = streamLayout(t, b, spec)
	for _, cl := range walkClients(b, spec, imagesEnd) {
		if n := int(binary.LittleEndian.Uint64(b[cl.at+1:])); cl.recipe && n > links {
			chain, links = cl.at+1, n
		}
	}
	if links == 0 {
		t.Fatal("the stream holds no recipe")
	}
	return
}

// streamLayout walks an FTRS stream to its round-image section and
// returns where the section starts and ends, and |w|.
func streamLayout(t *testing.T, b []byte, spec RunSpec) (images, imagesEnd, np int) {
	t.Helper()
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	np = len(rs.s.global)
	rs.Close()
	word := func(off int) int { return int(binary.LittleEndian.Uint64(b[off:])) }
	off := len(snapMagic) + 1
	off += 8 + word(off) // fingerprint
	off += 8 + 8*np + 17 // global model, selection stream
	images = off
	off += 8 + word(off)*(8+8*np) // the count, then each image's global
	return images, off, np
}

// recipeLink is one link of a recipe chain in the stream: image, stream
// position, step budget, rows and round.
const recipeLink = 8 + 17 + 8 + 8 + 8

// walkedClient is where one client's entry in a stream's client walk
// starts (its recipe byte), where its residual and last round are, and
// whether it holds a recipe.
type walkedClient struct {
	at, resid, lastRound int
	recipe               bool
}

// walkClients walks the client walk that starts at imagesEnd.
func walkClients(b []byte, spec RunSpec, imagesEnd int) []walkedClient {
	word := func(off int) int { return int(binary.LittleEndian.Uint64(b[off:])) }
	n := word(imagesEnd)
	out := make([]walkedClient, n)
	off := imagesEnd + 8
	for i := range out {
		cl := &out[i]
		cl.at, cl.recipe = off, b[off] == 1
		off++
		if cl.recipe {
			off += 8 + word(off)*recipeLink // the link count, then each link
		} else {
			off += 8 + 8*word(off) // state
		}
		cl.resid = off
		off += 8 + 8*word(off)
		cl.lastRound = off
		off += 8
		if b[off] == 1 {
			off += 17
		}
		off += 1 + 8 // stream flag, FLOP counter
	}
	return out
}

// TestResumeRefusesStrayResiduals: an error-feedback row is what an
// accepted upload stores, so a client whose stream carries one has
// participated, and a client whose recipe rebuilds its row carries none.
// Each doctored stream is refused, naming the client.
func TestResumeRefusesStrayResiduals(t *testing.T) {
	for _, sc := range hostileScenarios(t) {
		if sc.name != "priced transport" && sc.name != "lazy rows" {
			continue
		}
		good := sc.stream(t)
		_, imagesEnd, np := streamLayout(t, good, sc.spec())
		var bad []byte
		var want string
	walk:
		for id, cl := range walkClients(good, sc.spec(), imagesEnd) {
			floats := int(binary.LittleEndian.Uint64(good[cl.resid:]))
			switch {
			case sc.name == "priced transport" && floats == np:
				bad = append([]byte(nil), good...)
				binary.LittleEndian.PutUint64(bad[cl.lastRound:], 0)
				want = fmt.Sprintf("client %d holds a residual row from round 0", id)
			case sc.name == "lazy rows" && cl.recipe && floats == 0:
				row := binary.LittleEndian.AppendUint64(nil, uint64(np))
				row = append(row, make([]byte, 8*np)...)
				bad = bytes.Join([][]byte{good[:cl.resid], row, good[cl.resid+8:]}, nil)
				want = fmt.Sprintf("client %d holds a residual row that its recipe rebuilds", id)
			default:
				continue
			}
			break walk
		}
		if bad == nil {
			t.Fatalf("%s: the stream holds no client to doctor", sc.name)
		}
		sc.resumeHostile(t, bad, sc.buildCost(t), sc.name)
		if _, err := Resume(bytes.NewReader(bad), ResumeSpec{Spec: sc.spec()}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", sc.name, err, want)
		}
	}
}

// FuzzResume mutates the nine scenarios' streams (and the first of them
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
// constant — not one per client, per field or per 8-byte word — with
// every participant's error-feedback row in the walk, and in a lazy
// fleet, where most participants hold a recipe, not one per recipe: a
// recipe is written as it is, with no replay and no scratch row.
func TestSnapshotAllocationsDoNotScaleWithFleet(t *testing.T) {
	allocs := func(clients, perRound int) float64 {
		cfg := tinyConfig(3)
		cfg.Transport = efTransport{}
		cfg.Parts = make([][]int, clients)
		for c := range cfg.Parts {
			cfg.Parts[c] = []int{c % cfg.Train.Len()}
		}
		cfg.ClientsPerRound = perRound
		rs, err := NewRunState(RunSpec{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		recipes := 0
		for _, c := range rs.s.clients {
			if c != nil && c.recipe != 0 {
				recipes++
			}
		}
		if lazy := 3*perRound < clients; lazy != (recipes == perRound) {
			t.Fatalf("%d clients, %d a round: %d recipes after the first", clients, perRound, recipes)
		}
		return testing.AllocsPerRun(5, func() {
			if err := rs.Snapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	// AllocsPerRun counts the whole process, so other goroutines (the
	// evaluator, the race detector's) add a few; one per client adds 504,
	// one per recipe 127.
	for _, fleet := range []struct{ clients, perRound int }{{512, 256}, {1024, 128}} {
		small, large := allocs(8, 8*fleet.perRound/fleet.clients), allocs(fleet.clients, fleet.perRound)
		if large > small+64 {
			t.Fatalf("a snapshot of %d clients, %d a round, allocates %v times, of 8 clients %v", fleet.clients, fleet.perRound, large, small)
		}
	}
}
