package core_test

import (
	"math"
	"testing"

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
	// Behind the gate through the f32 downlink; async with device step
	// budgets; async, priced, with a sparse error-feedback uplink.
	methods, fleets := []string{"fedtrip:0.4", "moon"}, []lazyFleet{lazyFleets[1], lazyFleets[4], lazyFleets[5]}
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

// A transport may send the clients of one model version different
// vectors. A recipe replays what its version's first recording job
// received, so a first participation that received anything else keeps
// its rows dense, and the run is still the dense run.
func TestLazyRowsUnderPerClientDownlinks(t *testing.T) {
	train, test, parts := lazyRowData(t)
	for _, f := range []lazyFleet{lazyFleets[0], lazyFleets[3]} {
		t.Run(f.name, func(t *testing.T) {
			lazyMatchesDense(t, func() core.RunSpec {
				sp := lazyRowSpec(t, f, "fedtrip:0.4", train, test, parts)
				sp.Transport = perClientDown{}
				return sp
			})
		})
	}
}

// perClientDown is a WireTransport whose downlink depends on the client:
// odd clients receive the global with its first weight nudged.
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

// lazyMatchesDense runs spec twice in lock step, in the lazy regime and
// with every row held dense, and holds the two to one run.
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
	wasLazy := map[int]int{} // client -> its LastRound while lazy
	held, replayed := 0, 0
	for done := false; !done; {
		if done, err = lazy.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := dense.Step(); err != nil {
			t.Fatal(err)
		}
		lazy.Quiesce()
		dense.Quiesce()
		for i, c := range lazy.Server().Clients() {
			d := dense.Server().Clients()[i]
			if last, ok := wasLazy[c.ID]; ok && !c.Lazy() && c.LastRound > last {
				replayed++
				delete(wasLazy, c.ID)
			}
			if c.Lazy() {
				held++
				wasLazy[c.ID] = c.LastRound
			}
			if c.LastRound != d.LastRound || c.StateBytes() != d.StateBytes() {
				t.Fatalf("round %d client %d: last round %d and %d state bytes, the dense run %d and %d",
					lazy.Round(), c.ID, c.LastRound, c.StateBytes(), d.LastRound, d.StateBytes())
			}
			if c.StateBytes() == 0 {
				continue
			}
			rows := unchangedBy(t, c, c.PeekState)
			if !bitsEqual(rows, d.PeekState()) {
				t.Fatalf("round %d client %d (lazy %t): rows differ from the dense run's", lazy.Round(), c.ID, c.Lazy())
			}
		}
	}
	if held == 0 || replayed == 0 {
		t.Fatalf("%d recipes seen at boundaries, %d rebuilt by a dispatch: the regime is not exercised", held, replayed)
	}
	if a, b := lazy.Finish().Digest(), dense.Finish().Digest(); a != b {
		t.Fatalf("lazy rows digest %s, dense rows %s", a, b)
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
			continue
		}
		rows := unchangedBy(t, c, func() []float64 { return c.State(1) })
		if c.Lazy() || !bitsEqual(rows, d.State(1)) {
			t.Fatalf("client %d: State rebuilt rows that differ from the dense run's (still lazy: %t)", c.ID, c.Lazy())
		}
	}
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
