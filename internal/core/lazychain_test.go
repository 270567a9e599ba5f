package core_test

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/partition"
)

// returnsCase is one of the fleets whose clients come back: 40 clients
// of four samples, 19 rounds that merge two updates each (38 < 40), so
// the run is in the lazy regime and a few clients are sent out three
// times and more, their rows a chain of as many recipes.
type returnsCase struct {
	fleet          lazyFleet
	policy, faults string
}

var returnsCases = []returnsCase{
	{fleet: lazyFleet{name: "sync f32", runtime: "sync", transport: "f32"}},
	{lazyFleet{name: "async topk-ef median signflip crash", runtime: "async", transport: "topk:0.01+ef", latency: "straggler:1,10,3"},
		"median", "byz:0.2,signflip+crash:0.05"},
	{fleet: lazyFleet{name: "async lossless churn", runtime: "async", transport: "lossless", latency: "exp:2"}},
	{lazyFleet{name: "sync randk-ef noise", runtime: "sync", transport: "randk:0.05+ef"}, "", "byz:1,noise:0.1"},
}

// returnsSpec builds the case's spec for a method's text.
func returnsSpec(t *testing.T, tc returnsCase, method string, train, test *data.Dataset, parts [][]int) core.RunSpec {
	t.Helper()
	sp := lazyRowSpec(t, tc.fleet, method, train, test, parts)
	sp.Rounds, sp.ClientsPerRound = 19, 2
	if sp.Runtime == core.RuntimeAsync {
		sp.Concurrency, sp.BufferSize = 4, 2
	}
	var err error
	if tc.policy != "" {
		if sp.Policy, err = core.ParsePolicy(tc.policy); err != nil {
			t.Fatal(err)
		}
	}
	if tc.faults != "" {
		if sp.Faults, err = core.ParseFaults(tc.faults); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// returnsData is the fleet's corpus: forty clients of four samples.
func returnsData(t *testing.T) (train, test *data.Dataset, parts [][]int) {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 160, Test: 100, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	parts, err = partition.Partition(partition.IID(), train.Y, train.Classes, 40, 4, rand.New(rand.NewSource(49)))
	if err != nil {
		t.Fatal(err)
	}
	return train, test, parts
}

// TestLazyRowsAcrossReturns holds a client's chain to the rows it stands
// for. Each case runs in lock step with its HoldRowsDense twin: at every
// boundary each client's rows and error-feedback row equal the twin's bit
// for bit, and the run's versions are pinned by exactly the links and
// jobs that hold them (CheckPins). At the first boundary where a client
// holds a chain of two, both runs are snapshotted: the two streams
// resume to one run state (core.StateDigest), and the lazy one resumes
// into a run that keeps the same rows to the end. A chain of three must
// form, and the three results are one digest. Under noise faults, which
// every client of that case draws, a client whose rows are a chain of
// two or more keeps no error-feedback row: the chain rebuilds it.
func TestLazyRowsAcrossReturns(t *testing.T) {
	train, test, parts := returnsData(t)
	methods, cases := []string{"fedtrip:0.4", "moon"}, returnsCases
	if testing.Short() {
		methods, cases = methods[:1], cases[1:2]
	}
	for _, method := range methods {
		for _, tc := range cases {
			t.Run(method+"/"+tc.fleet.name, func(t *testing.T) {
				spec := func() core.RunSpec { return returnsSpec(t, tc, method, train, test, parts) }
				lazy := chainsMatchDense(t, spec)
				defer lazy.Close()
				if tc.faults != "byz:1,noise:0.1" {
					return
				}
				chained := 0
				for _, c := range lazy.Server().Clients() {
					if c.ChainDepth() > 1 {
						if c.HoldsResid() {
							t.Fatalf("noisy client %d, a chain of %d, keeps an error-feedback row", c.ID, c.ChainDepth())
						}
						chained++
					}
				}
				if chained == 0 {
					t.Fatal("no noisy client holds a chain of two")
				}
			})
		}
	}
}

// chainsMatchDense is TestLazyRowsAcrossReturns' lock step; it returns
// the lazy run, finished, for the caller to read and close.
func chainsMatchDense(t *testing.T, spec func() core.RunSpec) *core.RunState {
	t.Helper()
	lazy, err := core.NewRunState(spec())
	if err != nil {
		t.Fatal(err)
	}
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
	deepest := 0
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
			if err := resumed.CheckPins(); err != nil {
				t.Fatalf("resumed run, round %d: %v", resumed.Round(), err)
			}
		}
		sameRows(t, lazy, dense)
		if err := lazy.CheckPins(); err != nil {
			t.Fatalf("round %d: %v", lazy.Round(), err)
		}
		depth := 0
		for _, c := range lazy.Server().Clients() {
			depth = max(depth, c.ChainDepth())
		}
		deepest = max(deepest, depth)
		if resumed == nil && depth >= 2 && !done {
			resumed = resumeMidChain(t, lazy, dense, spec)
		}
	}
	if deepest < 3 {
		t.Fatalf("the deepest chain held %d links: no client returned twice", deepest)
	}
	t.Logf("the deepest chain held %d links", deepest)
	if resumed == nil {
		t.Fatal("no boundary held a chain of two")
	}
	digest := lazy.Finish().Digest()
	if d := dense.Finish().Digest(); d != digest {
		t.Fatalf("lazy rows digest %s, dense rows %s", digest, d)
	}
	if r := resumed.Finish().Digest(); r != digest {
		t.Fatalf("resumed mid-chain: digest %s, the uninterrupted run %s", r, digest)
	}
	if ls, ok := lazy.Spec().Transport.(interface{ Stats() *comm.Stats }); ok {
		l, d := ls.Stats(), dense.Spec().Transport.(interface{ Stats() *comm.Stats }).Stats()
		if l.DownBytes() != d.DownBytes() || l.UpBytes() != d.UpBytes() {
			t.Fatalf("transport traffic %s, the dense run's %s", l, d)
		}
	}
	return lazy
}

// resumeMidChain snapshots both runs at the same boundary, requires the
// two streams to resume to one run state, and resumes the lazy one.
func resumeMidChain(t *testing.T, lazy, dense *core.RunState, spec func() core.RunSpec) *core.RunState {
	t.Helper()
	var lb, db bytes.Buffer
	if err := lazy.Snapshot(&lb); err != nil {
		t.Fatal(err)
	}
	if err := dense.Snapshot(&db); err != nil {
		t.Fatal(err)
	}
	ls, err := core.StateDigest(lb.Bytes(), spec())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.StateDigest(db.Bytes(), spec())
	if err != nil {
		t.Fatal(err)
	}
	if ls != ds {
		t.Fatalf("round %d: the lazy run's stream resumes to state %s, the dense run's to %s", lazy.Round(), ls, ds)
	}
	if lb.Len() >= db.Len() {
		t.Fatalf("round %d: the lazy run's stream is %d bytes, the dense run's %d", lazy.Round(), lb.Len(), db.Len())
	}
	rs, err := core.Resume(&lb, core.ResumeSpec{Spec: spec()})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// replayCounter is FedTrip counting the rounds it trains that meter
// nowhere: the replays.
type replayCounter struct {
	*core.FedTrip
	replays *atomic.Int64
}

func (r replayCounter) BeginRound(c *core.Client, round int, global []float64) {
	if c.Counter == nil {
		r.replays.Add(1)
	}
	r.FedTrip.BeginRound(c, round, global)
}

// What chains cost, on the async top-k fleet: a client sent out n times
// replays its chain at each dispatch after the first, n(n-1)/2 local
// rounds in all, and nothing else replays. No replay meters a FLOP or
// moves a byte: the FLOP and traffic series and the transport's counters
// are the dense twin's, which replays nothing.
func TestLazyRowReplaysAreCounted(t *testing.T) {
	train, test, parts := returnsData(t)
	run := func(dense bool) (*core.Result, []int32, *comm.Stats, int64) {
		sp := returnsSpec(t, returnsCases[1], "fedtrip:0.4", train, test, parts)
		var replays atomic.Int64
		sp.Algo = replayCounter{sp.Algo.(*core.FedTrip), &replays}
		rs, err := core.NewRunState(sp)
		if err != nil {
			t.Fatal(err)
		}
		if dense {
			rs.HoldRowsDense()
		}
		res, err := rs.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]int32(nil), rs.Dispatches()...), sp.Transport.(*comm.Transport).Stats(), replays.Load()
	}
	res, dispatches, stats, replays := run(false)
	dres, _, dstats, dreplays := run(true)
	var want int64
	for _, n := range dispatches {
		want += int64(n) * int64(n-1) / 2
	}
	// 41 dispatches of 29 clients; pinned so that a change in who
	// returns shows here, not only in the sum.
	const pinned = 14
	if replays != want || replays != pinned || dreplays != 0 {
		t.Fatalf("%d replays, the dispatch counts make %d, pinned %d; the dense run replayed %d", replays, want, pinned, dreplays)
	}
	if res.TotalGFLOPs() != dres.TotalGFLOPs() {
		t.Fatalf("%v GFLOPs, the dense run %v", res.TotalGFLOPs(), dres.TotalGFLOPs())
	}
	for i := range res.CommBytesByRound {
		if res.CommBytesByRound[i] != dres.CommBytesByRound[i] {
			t.Fatalf("round %d: %d bytes, the dense run %d", i+1, res.CommBytesByRound[i], dres.CommBytesByRound[i])
		}
	}
	if stats.DownBytes() != dstats.DownBytes() || stats.UpBytes() != dstats.UpBytes() {
		t.Fatalf("transport traffic %s, the dense run's %s", stats, dstats)
	}
}
