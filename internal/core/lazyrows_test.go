package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

// The two ways a run can hold first-participation rows must be one run.
// Each spec runs twice in lock step: as it is, in the lazy regime, and
// with every row held dense. At every round boundary, with the jobs in
// flight joined, each client's rows
// in the lazy run — rebuilt from its recipe where it has one — equal the
// dense run's bit for bit, and rebuilding them moves neither the
// client's FLOP counter, its stream nor its LastRound. The two results
// are one digest. At the end a lazy client trained by hand uploads what
// its dense twin uploads, and Client.State itself rebuilds every other
// recipe.
func TestLazyRowsMatchDenseRows(t *testing.T) {
	train, test, parts := lazyRowData(t)
	// Behind the gate through the f32 downlink and through the lossless
	// one; async with device step budgets; async, priced, with a sparse
	// error-feedback uplink.
	lossless := lazyFleet{name: "sync lossless", runtime: "sync", transport: "lossless"}
	methods, fleets := []string{"fedtrip:0.4", "moon"}, []lazyFleet{lazyFleets[1], lossless, lazyFleets[4], lazyFleets[5]}
	if testing.Short() {
		methods, fleets = methods[:1], []lazyFleet{lazyFleets[1], lazyFleets[5]}
	}
	for _, method := range methods {
		for _, f := range fleets {
			t.Run(method+"/"+f.name, func(t *testing.T) {
				lazyMatchesDense(t, func() core.RunSpec { return lazyRowSpec(t, f, method, train, test, parts) })
			})
		}
	}
}

// The lazy regime under Byzantine faults and robust merges. The first
// fleet is wire1k_topk_median's shape in miniature: async, a sparse
// error-feedback uplink, a coordinate-wise median, sign-flipping and
// crashing clients and a tiered network. Behind the gate an
// error-feedback q8 uplink refuses every crashed upload, which leaves no
// residual row. Noise clients draw from a stream of their own at every
// upload.
func TestLazyRowsUnderFaults(t *testing.T) {
	train, test, parts := lazyRowData(t)
	cases := []struct {
		fleet          lazyFleet
		policy, faults string
	}{
		{lazyFleet{name: "async topk-ef median signflip crash tiered", runtime: "async", transport: "topk:0.01+ef",
			latency: "straggler:1,10,7", network: "tiered"}, "median", "byz:0.2,signflip+crash:0.05"},
		{lazyFleet{name: "sync q8-ef signflip crash", runtime: "sync", transport: "q8+ef"}, "", "byz:0.2,signflip+crash:0.05"},
		{lazyFleet{name: "async topk-ef trimmedmean noise", runtime: "async", transport: "topk:0.01+ef",
			latency: "exp:2"}, "trimmedmean:0.2", "byz:0.2,noise:0.1"},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, tc := range cases {
		t.Run(tc.fleet.name, func(t *testing.T) {
			lazyMatchesDense(t, func() core.RunSpec {
				sp := lazyRowSpec(t, tc.fleet, "fedtrip:0.4", train, test, parts)
				var err error
				if tc.policy != "" {
					if sp.Policy, err = core.ParsePolicy(tc.policy); err != nil {
						t.Fatal(err)
					}
				}
				if sp.Faults, err = core.ParseFaults(tc.faults); err != nil {
					t.Fatal(err)
				}
				return sp
			})
		})
	}
}

// A transport may send the clients of one model version different
// vectors. Whatever the lazy regime holds for a first participation
// that received its own vector, the run is still the dense run, row for
// row. A replay derives each client's downlink afresh, so the odd
// clients, whose downlink is nudged, hold recipes as the even ones do.
func TestLazyRowsUnderPerClientDownlinks(t *testing.T) {
	train, test, parts := lazyRowData(t)
	for _, f := range []lazyFleet{lazyFleets[0], lazyFleets[3]} {
		t.Run(f.name, func(t *testing.T) {
			build := func() core.RunSpec {
				sp := lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts)
				sp.Transport = perClientDown{}
				return sp
			}
			lazyMatchesDense(t, build)
			rs, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for i := 0; i < 4; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatal(err)
				}
			}
			rs.Quiesce()
			var odd, even int
			for _, c := range rs.Server().Clients() {
				if c.Lazy() && c.ID%2 == 1 {
					odd++
				} else if c.Lazy() {
					even++
				}
			}
			if odd == 0 || even == 0 {
				t.Fatalf("%d odd and %d even clients hold a recipe after 4 rounds", odd, even)
			}
		})
	}
}

// perClientDown is a WireTransport whose downlink depends on the client:
// odd clients receive the global with its first weight nudged. DownCode
// and UpCode are its transfers, which count nothing anyway.
type perClientDown struct{}

func (perClientDown) Down(int, int, []float64) []float64 { panic("the runtime calls DownInto") }
func (perClientDown) Up(int, int, []float64) []float64   { panic("the runtime calls UpInto") }

func (perClientDown) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	copy(dst, global)
	if clientID%2 == 1 {
		dst[0] += 1e-3
	}
	return int64(4 * len(global))
}

func (perClientDown) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	copy(dst, params)
	return int64(4 * len(params))
}

func (t perClientDown) DownCode(dst []float64, clientID, round int, global []float64) int64 {
	return t.DownInto(dst, clientID, round, global)
}

func (t perClientDown) UpCode(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	return t.UpInto(dst, clientID, round, params, ref, resid)
}

// A transport that offers the runtime only DownInto and UpInto, with no
// way to run a transfer again uncounted, is still the dense run: at
// every round boundary each client holds its HoldRowsDense twin's rows
// and error-feedback row, and the two results are one digest.
func TestLazyRowsUnderATransportWithoutACoder(t *testing.T) {
	train, test, parts := lazyRowData(t)
	for _, f := range []lazyFleet{lazyFleets[0], lazyFleets[3]} {
		t.Run(f.name, func(t *testing.T) {
			build := func() core.RunSpec {
				sp := lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts)
				sp.Transport = roundingWire{}
				return sp
			}
			run, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()
			dense, err := core.NewRunState(build())
			if err != nil {
				t.Fatal(err)
			}
			defer dense.Close()
			dense.HoldRowsDense()
			for done := false; !done; {
				if done, err = run.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := dense.Step(); err != nil {
					t.Fatal(err)
				}
				run.Quiesce()
				dense.Quiesce()
				sameRows(t, run, dense)
			}
			if got, want := run.Finish().Digest(), dense.Finish().Digest(); got != want {
				t.Fatalf("digest %s, the dense run's %s", got, want)
			}
		})
	}
}

// roundingWire is a WireTransport and nothing more: both transfers are
// rounded to float32 and counted at that width.
type roundingWire struct{}

func (roundingWire) Down(int, int, []float64) []float64 { panic("the runtime calls DownInto") }
func (roundingWire) Up(int, int, []float64) []float64   { panic("the runtime calls UpInto") }

func (roundingWire) DownInto(dst []float64, clientID, round int, global []float64) int64 {
	for i, x := range global {
		dst[i] = float64(float32(x))
	}
	return int64(4 * len(global))
}

func (roundingWire) UpInto(dst []float64, clientID, round int, params, ref []float64, resid *[]float64) int64 {
	for i, x := range params {
		dst[i] = float64(float32(x))
	}
	return int64(4 * len(params))
}

// lazyMatchesDense runs spec in lock step in the lazy regime, with every
// row held dense, and resumed from snapshots of the lazy run: one taken a
// third of the way in, and one of the resumed run two thirds in, whose
// stream re-writes recipes and round images that came from a stream. It
// holds them to one run: at each resume the resumed run holds recipes
// for the clients its source holds them for, and at every boundary every
// run's rows equal the dense run's bit for bit.
func lazyMatchesDense(t *testing.T, spec func() core.RunSpec) {
	t.Helper()
	lazy, err := core.NewRunState(spec())
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	dense, err := core.NewRunState(spec())
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	dense.HoldRowsDense()
	var resumed *core.RunState
	defer func() {
		if resumed != nil {
			resumed.Close()
		}
	}()
	first, second := lazy.Spec().Rounds/3, 2*lazy.Spec().Rounds/3
	wasLazy := map[int]int{} // client -> its LastRound while lazy
	held, replayed, carried := 0, 0, 0
	for done := false; !done; {
		if done, err = lazy.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := dense.Step(); err != nil {
			t.Fatal(err)
		}
		lazy.Quiesce()
		dense.Quiesce()
		if resumed != nil {
			if rdone, err := resumed.Step(); err != nil || rdone != done {
				t.Fatalf("resumed run: done %t, the lazy run %t (%v)", rdone, done, err)
			}
			resumed.Quiesce()
			sameRows(t, resumed, dense)
		}
		for _, c := range lazy.Server().Clients() {
			if last, ok := wasLazy[c.ID]; ok && c.LastRound > last {
				replayed++
				delete(wasLazy, c.ID)
			}
			if c.Lazy() {
				held++
				wasLazy[c.ID] = c.LastRound
			}
		}
		sameRows(t, lazy, dense)
		switch lazy.Round() {
		case first:
			resumed = resumeLazy(t, lazy, spec)
		case second:
			for _, c := range resumed.Server().Clients() {
				if c.Lazy() && c.LastRound <= first {
					carried++
				}
			}
			from := resumed
			resumed = resumeLazy(t, from, spec)
			from.Close()
		}
	}
	if carried == 0 {
		t.Fatalf("no recipe from the first stream was left to re-write at round %d", second)
	}
	if held == 0 || replayed == 0 {
		t.Fatalf("%d recipes seen at boundaries, %d replayed by a dispatch: the regime is not exercised", held, replayed)
	}
	digest := lazy.Finish().Digest()
	if d := dense.Finish().Digest(); digest != d {
		t.Fatalf("lazy rows digest %s, dense rows %s", digest, d)
	}
	if r := resumed.Finish().Digest(); r != digest {
		t.Fatalf("resumed twice: digest %s, the uninterrupted run %s", r, digest)
	}
	byHand := true // the first lazy client is trained by hand, the others read
	for i, c := range lazy.Server().Clients() {
		if !c.Lazy() {
			continue
		}
		d := dense.Server().Clients()[i]
		if byHand {
			byHand = false
			round, global := c.LastRound+1, lazy.Server().Global()
			if u, v := c.LocalTrain(round, global), d.LocalTrain(round, global); !bitsEqual(u.Params, v.Params) {
				t.Fatalf("client %d trained by hand: upload differs from the dense run's", c.ID)
			}
			if c.Lazy() || !bitsEqual(c.State(1), d.State(1)) {
				t.Fatalf("client %d trained by hand: rows differ from the dense run's (still lazy: %t)", c.ID, c.Lazy())
			}
			if !bitsEqual(lazy.PeekResid(c), dense.PeekResid(d)) {
				t.Fatalf("client %d trained by hand: error-feedback row differs from the dense run's", c.ID)
			}
			continue
		}
		rows := unchangedBy(t, c, func() []float64 { return c.State(1) })
		if c.Lazy() || !bitsEqual(rows, d.State(1)) {
			t.Fatalf("client %d: State rebuilt rows that differ from the dense run's (still lazy: %t)", c.ID, c.Lazy())
		}
		if !bitsEqual(lazy.PeekResid(c), dense.PeekResid(d)) {
			t.Fatalf("client %d: after State its error-feedback row differs from the dense run's", c.ID)
		}
	}
	// Nothing above, and no replay in the run, went over the wire.
	if ls, ok := lazy.Spec().Transport.(interface{ Stats() *comm.Stats }); ok {
		l, d := ls.Stats(), dense.Spec().Transport.(interface{ Stats() *comm.Stats }).Stats()
		if l.DownBytes() != d.DownBytes() || l.UpBytes() != d.UpBytes() {
			t.Fatalf("transport traffic %s, the dense run's %s", l, d)
		}
	}
}

// sameRows fails unless every client of run, with its jobs joined, has
// the dense run's LastRound, state bytes, rows and error-feedback row,
// bit for bit.
func sameRows(t *testing.T, run, dense *core.RunState) {
	t.Helper()
	for i, c := range run.Server().Clients() {
		d := dense.Server().Clients()[i]
		if c.LastRound != d.LastRound || c.StateBytes() != d.StateBytes() {
			t.Fatalf("round %d client %d: last round %d and %d state bytes, the dense run %d and %d",
				run.Round(), c.ID, c.LastRound, c.StateBytes(), d.LastRound, d.StateBytes())
		}
		resid := unchangedBy(t, c, func() []float64 { return run.PeekResid(c) })
		if want := dense.PeekResid(d); !bitsEqual(resid, want) {
			t.Fatalf("round %d client %d (lazy %t): error-feedback row of %d floats differs from the dense run's %d",
				run.Round(), c.ID, c.Lazy(), len(resid), len(want))
		}
		if c.StateBytes() == 0 {
			continue
		}
		rows := unchangedBy(t, c, c.PeekState)
		if !bitsEqual(rows, d.PeekState()) {
			t.Fatalf("round %d client %d (lazy %t): rows differ from the dense run's", run.Round(), c.ID, c.Lazy())
		}
	}
}

// resumeLazy snapshots from and resumes the stream, which must carry a
// recipe for exactly the clients from holds one for, and some.
func resumeLazy(t *testing.T, from *core.RunState, spec func() core.RunSpec) *core.RunState {
	t.Helper()
	var buf bytes.Buffer
	if err := from.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs, err := core.Resume(&buf, core.ResumeSpec{Spec: spec()})
	if err != nil {
		t.Fatal(err)
	}
	recipes := 0
	for i, c := range from.Server().Clients() {
		if r := rs.Server().Clients()[i]; r.Lazy() != c.Lazy() {
			t.Fatalf("round %d client %d: lazy %t after the resume, %t before", from.Round(), c.ID, r.Lazy(), c.Lazy())
		}
		if c.Lazy() {
			recipes++
		}
	}
	if recipes == 0 {
		t.Fatalf("round %d: the stream carries no recipe", from.Round())
	}
	return rs
}

// unchangedBy calls read and fails unless c's FLOP counter, stream
// position and LastRound are what they were.
func unchangedBy(t *testing.T, c *core.Client, read func() []float64) []float64 {
	t.Helper()
	flops, pos, last := c.Counter.Total(), c.RNG().State(), c.LastRound
	rows := read()
	if c.Counter.Total() != flops || c.RNG().State() != pos || c.LastRound != last {
		t.Fatalf("client %d: rebuilding its rows moved its FLOPs %d -> %d, stream %v -> %v or last round %d -> %d",
			c.ID, flops, c.Counter.Total(), pos, c.RNG().State(), last, c.LastRound)
	}
	return rows
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
