package comm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d core.FleetDist, err error) core.FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}

// parsed is the transport a spec names.
func parsed(t testing.TB, text string) *Transport {
	t.Helper()
	tr, err := ParseTransport(text)
	if err != nil {
		t.Fatal(err)
	}
	return tr.(*Transport)
}

func TestF32TransportQuantizes(t *testing.T) {
	tr := parsed(t, "f32")
	v := []float64{math.Pi, 1e-300, 2.5}
	got := tr.Down(0, 1, v)
	if got[0] == math.Pi {
		t.Fatal("pi survived float32 transport unrounded")
	}
	if got[0] != float64(float32(math.Pi)) {
		t.Fatalf("got %v want float32 rounding", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("denormal-beyond-f32 value should flush to 0, got %v", got[1])
	}
	if got[2] != 2.5 {
		t.Fatal("exactly representable value changed")
	}
}

func TestStatsCounting(t *testing.T) {
	tr := parsed(t, "f32")
	v := make([]float64, 100)
	tr.Down(0, 1, v)
	tr.Down(1, 1, v)
	tr.Up(0, 1, v)
	s := tr.Stats()
	wantPer := tensor.VectorWireSizeF32(100)
	if s.DownBytes() != 2*wantPer || s.UpBytes() != wantPer {
		t.Fatalf("bytes down=%d up=%d want %d/%d", s.DownBytes(), s.UpBytes(), 2*wantPer, wantPer)
	}
	d, u := s.Messages()
	if d != 2 || u != 1 {
		t.Fatalf("msgs %d/%d", d, u)
	}
	if s.TotalBytes() != 3*wantPer {
		t.Fatal("total")
	}
	if !strings.Contains(s.String(), "MB") {
		t.Fatal("stats string")
	}
}

func TestLosslessTransportIdentity(t *testing.T) {
	tr := parsed(t, "lossless")
	v := []float64{math.Pi}
	if got := tr.Down(0, 1, v); got[0] != math.Pi {
		t.Fatal("lossless transport changed data")
	}
	tr.Up(0, 1, v)
	if tr.Stats().TotalBytes() != 16 {
		t.Fatalf("bytes %d", tr.Stats().TotalBytes())
	}
}

// End-to-end: a run over the float32 transport must track the lossless run
// closely (quantization is benign) and meter exactly the analytic wire
// bytes.
func TestF32TransportEndToEnd(t *testing.T) {
	build := func(tr core.Transport) core.Config {
		train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 50, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		return core.Config{
			Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
			Train:           train,
			Test:            test,
			Parts:           parts,
			Rounds:          6,
			ClientsPerRound: 3,
			BatchSize:       10,
			LocalEpochs:     1,
			LR:              0.01,
			Momentum:        0.9,
			Algo:            core.NewFedTrip(0.4),
			Seed:            7,
			Transport:       tr,
		}
	}
	tr := parsed(t, "f32")
	resF32, err := core.Start(core.RunSpec{Config: build(tr)})
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := core.Start(core.RunSpec{Config: build(nil)})
	if err != nil {
		t.Fatal(err)
	}
	// Wire bytes: 6 rounds x 3 clients x (down + up).
	m, _ := (nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}).Build(1)
	per := tensor.VectorWireSizeF32(m.NumParams())
	want := int64(6 * 3 * 2 * per)
	if tr.Stats().TotalBytes() != want {
		t.Fatalf("wire bytes %d want %d", tr.Stats().TotalBytes(), want)
	}
	// Accuracy: float32 quantization must not change the outcome much.
	d := math.Abs(resF32.FinalAccuracy - resRef.FinalAccuracy)
	if d > 0.1 {
		t.Fatalf("f32 transport moved final accuracy by %.3f (%.3f vs %.3f)", d, resF32.FinalAccuracy, resRef.FinalAccuracy)
	}
	if resF32.BestAccuracy < 0.3 {
		t.Fatalf("f32 run failed to learn: %v", resF32.BestAccuracy)
	}
}

// The runtime must prefer the transport's measured wire bytes over the
// analytic 4|w| formula: with the f32 transport installed, CommBytesByRound
// has to equal the Stats counters exactly (headers included), and each
// round's increment must match the per-transfer wire size.
func TestMeteredTransportFeedsCommBytes(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 50, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	tr := parsed(t, "f32")
	cfg := core.Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          4,
		ClientsPerRound: 3,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            core.NewFedTrip(0.4),
		Seed:            7,
		Transport:       tr,
	}
	res, err := core.Start(core.RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.CommBytesByRound[len(res.CommBytesByRound)-1], tr.Stats().TotalBytes(); got != want {
		t.Fatalf("CommBytesByRound final %d, measured stats %d", got, want)
	}
	m, _ := cfg.Model.Build(1)
	perRound := int64(cfg.ClientsPerRound) * 2 * tensor.VectorWireSizeF32(m.NumParams())
	prev := int64(0)
	for i, cum := range res.CommBytesByRound {
		if cum-prev != perRound {
			t.Fatalf("round %d delta %d want %d", i+1, cum-prev, perRound)
		}
		prev = cum
	}
	// Without a transport the analytic formula remains in force (no
	// header bytes).
	cfg.Transport = nil
	resA, err := core.Start(core.RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	analytic := int64(cfg.Rounds) * int64(cfg.ClientsPerRound) * 2 * int64(4*m.NumParams())
	if got := resA.CommBytesByRound[len(resA.CommBytesByRound)-1]; got != analytic {
		t.Fatalf("analytic fallback %d want %d", got, analytic)
	}
}

// A run that merges fewer updates than it has clients holds first
// participations' rows as recipes and rebuilds them by replaying the
// round — at a client's next dispatch, and for every such row a snapshot
// writes. A replay is not a transfer: through every route a transport
// can take (in place, and legacy and sized with delta coding) the
// transport counts exactly Rounds × K downlinks and uplinks,
// CommBytesByRound equals its counters, and a run that snapshots twice on
// the way records the communication and digest of one that does not.
func TestLazyRowsLeaveTrafficCountersExact(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 24, 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	const rounds, k = 5, 3 // 15 merged updates on 24 clients
	routes := []struct {
		name, spec string
		wrap       func(core.Transport) core.Transport
	}{
		{"in place", "f32", func(t core.Transport) core.Transport { return t }},
		{"legacy sized delta", "topk:0.01+ef", func(t core.Transport) core.Transport { return legacyOnly{t.(core.SizedTransport)} }},
	}
	for _, route := range routes {
		run := func(snapAt map[int]bool) (*core.Result, core.Transport) {
			tr, err := ParseTransport(route.spec)
			if err != nil {
				t.Fatal(err)
			}
			state, err := core.NewRunState(core.RunSpec{Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
				Train: train, Test: test, Parts: parts,
				Rounds: rounds, ClientsPerRound: k, BatchSize: 10, LocalEpochs: 1, LR: 0.01, Momentum: 0.9,
				Algo: core.NewFedTrip(0.4), Seed: 7, Transport: route.wrap(tr),
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer state.Close()
			for done := false; !done; {
				if done, err = state.Step(); err != nil {
					t.Fatal(err)
				}
				if snapAt[state.Round()] {
					if err := state.Snapshot(new(bytes.Buffer)); err != nil {
						t.Fatal(err)
					}
				}
			}
			return state.Finish(), tr
		}
		plain, _ := run(nil)
		res, tr := run(map[int]bool{2: true, 4: true})
		if res.Digest() != plain.Digest() {
			t.Errorf("%s: snapshots moved the digest: %s, %s uninterrupted", route.name, res.Digest(), plain.Digest())
		}
		for i := range plain.CommBytesByRound {
			if res.CommBytesByRound[i] != plain.CommBytesByRound[i] {
				t.Fatalf("%s: round %d communication %d, %d uninterrupted", route.name, i+1, res.CommBytesByRound[i], plain.CommBytesByRound[i])
			}
		}
		st := tr.(interface{ Stats() *Stats }).Stats()
		if down, up := st.Messages(); down != rounds*k || up != rounds*k {
			t.Errorf("%s: transport counted %d downlinks and %d uplinks, want %d each", route.name, down, up, rounds*k)
		}
		if got, want := res.CommBytesByRound[len(res.CommBytesByRound)-1], st.TotalBytes(); got != want {
			t.Errorf("%s: CommBytesByRound final %d, transport counters %d", route.name, got, want)
		}
	}
}

// legacyOnly hides a transport's DownInto/UpInto, so the runtime adapts
// it: the route the benchmark's trace wrapper takes. It keeps the name,
// as that wrapper does.
type legacyOnly struct{ core.SizedTransport }

func (l legacyOnly) String() string { return l.SizedTransport.(fmt.Stringer).String() }

// The runtime has one transfer path; a legacy transport reaches it through
// core's adapter and this package's allocating wrappers. Both routes must
// give one trajectory — lock-step and buffered, dense and delta-coded
// with error feedback, faults on the wire, and a permanent mass drop that
// voids in-flight dispatches — one communication series, the same
// transport counters, and one mid-run snapshot stream: the legacy route
// keeps the error-feedback rows in the clients too.
func TestLegacyRouteMatchesInPlaceRoute(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 300, Test: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 8, 30, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	faults, err := core.ParseFaults("byz:0.25,signflip+crash:0.15")
	if err != nil {
		t.Fatal(err)
	}
	drop, err := core.ParseChurn("drop:2.5,0.4,0")
	if err != nil {
		t.Fatal(err)
	}
	fleets := []struct {
		runtime core.Runtime
		churn   *core.ChurnModel
	}{
		{core.RuntimeSync, nil},
		{core.RuntimeAsync, nil},
		{core.RuntimeBarrier, drop},
		{core.RuntimeAsync, drop},
	}
	// routeRun is what one route left: the digest, the mid-run stream,
	// the communication series and the transport's counters.
	type routeRun struct {
		digest  string
		stream  []byte
		comm    []int64
		dropped int
		stats   [4]int64 // down bytes, up bytes, down msgs, up msgs
	}
	for _, spec := range []string{"f32", "lossless", "q8+ef", "topk:0.01+ef", "randk:0.05"} {
		for _, fleet := range fleets {
			run := func(legacy bool) routeRun {
				inner, err := ParseTransport(spec)
				if err != nil {
					t.Fatal(err)
				}
				tr := inner
				if legacy {
					tr = legacyOnly{tr.(core.SizedTransport)}
				}
				rs := core.RunSpec{Runtime: fleet.runtime, Faults: faults, Churn: fleet.churn, Config: core.Config{
					Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
					Train: train, Test: test, Parts: parts,
					Rounds: 6, ClientsPerRound: 4, BatchSize: 10, LocalEpochs: 1, LR: 0.01, Momentum: 0.9,
					Algo: core.NewFedTrip(0.4), Seed: 7, Transport: tr,
				}}
				if fleet.runtime != core.RuntimeSync {
					rs.Latency = mustFleet(core.ParseLatency("const:1"))
					rs.Network = mustFleet(core.ParseNetDist("tiered"))
				}
				if fleet.runtime == core.RuntimeAsync {
					rs.Concurrency, rs.BufferSize = 4, 2
				}
				state, err := core.NewRunState(rs)
				if err != nil {
					t.Fatal(err)
				}
				defer state.Close()
				var stream bytes.Buffer
				for i := 0; i < 3; i++ {
					if _, err := state.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if err := state.Snapshot(&stream); err != nil {
					t.Fatal(err)
				}
				res, err := state.Run()
				if err != nil {
					t.Fatal(err)
				}
				st := inner.(*Transport).Stats()
				downMsgs, upMsgs := st.Messages()
				return routeRun{res.Digest(), stream.Bytes(), res.CommBytesByRound, res.DroppedUpdates,
					[4]int64{st.DownBytes(), st.UpBytes(), downMsgs, upMsgs}}
			}
			inPlace, legacy := run(false), run(true)
			at := fmt.Sprintf("%s on %v", spec, fleet.runtime)
			if fleet.churn != nil {
				at += " " + fleet.churn.String()
				if inPlace.dropped == 0 {
					t.Errorf("%s: the mass drop voided no dispatch; the fleet checks nothing of it", at)
				}
			}
			if inPlace.digest != legacy.digest {
				t.Errorf("%s: in-place digest %s, legacy route %s", at, inPlace.digest, legacy.digest)
			}
			if !bytes.Equal(inPlace.stream, legacy.stream) {
				t.Errorf("%s: the routes' snapshot streams differ (%d and %d bytes)", at, len(inPlace.stream), len(legacy.stream))
			}
			if fmt.Sprint(inPlace.comm) != fmt.Sprint(legacy.comm) {
				t.Errorf("%s: communication by round %v in place, %v on the legacy route", at, inPlace.comm, legacy.comm)
			}
			if inPlace.stats != legacy.stats {
				t.Errorf("%s: transport counters %v in place, %v on the legacy route", at, inPlace.stats, legacy.stats)
			}
		}
	}
}
