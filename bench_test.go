// Package repro's root benchmarks meter the federated runtime itself:
// wall-clock throughput of the lock-step and buffered loops, and the
// population-scale runs from 1k to 1M clients.
//
//	go test -bench=RuntimeThroughput -cpu 1,2,4   # updates/sec vs cores
//	go test -bench=Population -benchtime=3x       # events/s per fleet
//
// Their timings are report-only. What is deterministic in a population
// run — the per-client bookkeeping bytes and the number of heap
// allocations one run makes at fixed parallelism — is asserted by
// TestPopulationCounters against the constants in the populationRuns
// table below, so a regression fails `go test ./...` and the history of
// both counters is `git log -p` on this file. The paper's tables and
// figures are not benchmarks: `go run ./cmd/fedtrip-tables -profile tiny`
// renders every registered experiment, and cmd/fedtrip-bench is the
// committed end-to-end benchmark.
package repro

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// mustFleet unwraps a fleet spec the test knows to be valid.
func mustFleet(d core.FleetDist, err error) core.FleetDist {
	if err != nil {
		panic(err)
	}
	return d
}

// --- Runtime throughput: synchronous vs asynchronous ---
//
// Both benchmarks meter client updates per second of real wall-clock time
// (the simulated latency clock is free). Run with -cpu 1,2,4,8 to see how
// each runtime scales with GOMAXPROCS: the async event loop keeps
// Concurrency clients training in their own goroutines, so its
// updates/sec grows with cores until Concurrency saturates.

// benchRuntimeConfig is a small-but-real FL setup: 16 clients, MLP,
// MNIST-like data.
func benchRuntimeConfig(tb testing.TB) core.Config {
	tb.Helper()
	const clients, perClient = 16, 40
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 100, Seed: 61,
	})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(62)))
	if err != nil {
		tb.Fatal(err)
	}
	return core.Config{
		Model: nn.ModelSpec{
			Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10,
		},
		Train: train, Test: test, Parts: parts,
		Rounds: 4, ClientsPerRound: 8,
		BatchSize: 20, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Algo: core.NewFedTrip(0.4), Seed: 63,
		EvalEvery: 100, // meter training throughput, not evaluation
	}
}

// BenchmarkSyncRuntimeThroughput: lock-step rounds, clients trained
// concurrently within each round, full barrier between rounds.
func BenchmarkSyncRuntimeThroughput(b *testing.B) {
	cfg := benchRuntimeConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Algo = core.NewFedTrip(0.4)
		res, err := core.Start(core.RunSpec{Config: c})
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Rounds * c.ClientsPerRound
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
}

// BenchmarkAsyncRuntimeThroughput: buffered async, 8 clients always in
// flight, aggregate every 4 arrivals — no inter-round barrier, so idle
// cores pick up the next dispatch immediately.
func BenchmarkAsyncRuntimeThroughput(b *testing.B) {
	cfg := benchRuntimeConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		c := core.RunSpec{
			Config:      cfg,
			Runtime:     core.RuntimeAsync,
			Concurrency: 8,
			BufferSize:  4,
			Latency:     mustFleet(core.ParseLatency("uniform:1,3")),
		}
		c.Algo = core.NewFedTrip(0.4)
		res, err := core.Start(c)
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Rounds * c.BufferSize
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
}

// --- Population scale: 1k to 1M clients ---
//
// Clients hold a handful of samples each and the quarter-width MLP keeps
// the per-shard engines small, so the numbers measure the runtime —
// registry, heap event loop, dispatch, engine pool, merge — rather than
// raw matmul throughput. Evaluation is disabled (EvalEvery past the
// horizon) for the same reason. Every spec pins Shards to 2, so the
// amount of real parallelism, and with it the allocation count, does not
// follow the machine.

// populationConfig builds a fleet of clients with 6 samples each.
func populationConfig(tb testing.TB, clients int) core.Config {
	tb.Helper()
	const perClient = 6
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 100, Seed: 81,
	})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(82)))
	if err != nil {
		tb.Fatal(err)
	}
	return core.Config{
		Model: nn.ModelSpec{
			Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25,
		},
		Train: train, Test: test, Parts: parts,
		Rounds: 4, ClientsPerRound: 32,
		BatchSize: perClient, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Seed: 83, Shards: 2,
		EvalEvery: 1 << 20,
	}
}

// syncSpec is the lock-step runtime: 4 rounds of 32 clients.
func syncSpec(tb testing.TB, clients int) core.RunSpec {
	return core.RunSpec{Config: populationConfig(tb, clients)}
}

// asyncSpec is the buffered runtime under stragglers: 128 clients in
// flight, an aggregation every 32 arrivals.
func asyncSpec(tb testing.TB, clients int) core.RunSpec {
	return core.RunSpec{
		Config:      populationConfig(tb, clients),
		Runtime:     core.RuntimeAsync,
		Concurrency: 128,
		BufferSize:  32,
		Latency:     mustFleet(core.ParseLatency("straggler:1,10,7")),
	}
}

// churnSpec is the device-heterogeneity event loop: lognormal
// FLOP-coupled device speeds (arrivals priced by metered FLOPs, joined at
// dispatch), adaptive local steps, Markov availability churn, and the
// max-staleness admission cutoff on top of the buffered runtime.
func churnSpec(tb testing.TB, clients int) core.RunSpec {
	return core.RunSpec{
		Config:             populationConfig(tb, clients),
		Runtime:            core.RuntimeAsync,
		Concurrency:        128,
		BufferSize:         32,
		Devices:            mustFleet(core.ParseDeviceDist("lognormal:0,0.6")),
		FlopRate:           1e6,
		AdaptiveLocalSteps: true,
		Churn:              &core.ChurnModel{MeanUp: 30, MeanDown: 3},
		Policy:             policy(tb, "fedbuff+maxstale:8"),
	}
}

// policy parses a -policy text.
func policy(tb testing.TB, text string) core.Policy {
	p, err := core.ParsePolicy(text)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// fedAsyncSpec is the single-arrival path: a mixing-rate merge on every
// arrival. The round budget is scaled so the run processes the same 128
// client updates as asyncSpec's 4 aggregations of 32 — the numbers meter
// the per-merge overhead of merging on every arrival.
func fedAsyncSpec(tb testing.TB, clients int) core.RunSpec {
	spec := asyncSpec(tb, clients)
	spec.Rounds = 128
	spec.BufferSize = 0
	spec.Policy = policy(tb, "fedasync:0.6")
	return spec
}

// robustSpec is the robust aggregation path: a 20% sign-flipping / 5%
// crashing fleet merged with the coordinate-wise median (in-place
// heapsort over the per-coordinate column, non-finite screen in front).
// The robust estimators must stay on the pooled, allocation-free merge
// path, which is what this row's allocation ceiling holds them to.
func robustSpec(tb testing.TB, clients int) core.RunSpec {
	faults, err := core.ParseFaults("byz:0.2,signflip+crash:0.05")
	if err != nil {
		tb.Fatal(err)
	}
	spec := asyncSpec(tb, clients)
	spec.Policy = policy(tb, "median")
	spec.Faults = faults
	return spec
}

// scaleSpec is the 100k–1M fleet: clients share a small sample pool
// (overlapping indices), so the dataset stays tiny while the runtime's
// per-client machinery — registry, heap slot map, aggregate churn,
// stateless device/latency derivation — runs at full population width.
func scaleSpec(tb testing.TB, clients int) core.RunSpec {
	tb.Helper()
	const perClient, pool = 4, 2000
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: pool, Test: 100, Seed: 91,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	parts := make([][]int, clients)
	flat := make([]int, clients*perClient)
	for i := range parts {
		p := flat[i*perClient : (i+1)*perClient : (i+1)*perClient]
		for k := range p {
			p[k] = rng.Intn(pool)
		}
		parts[i] = p
	}
	return core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: 6, ClientsPerRound: 32,
			BatchSize: perClient, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Seed: 93, Shards: 2,
			EvalEvery: 1 << 20,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: 256,
		BufferSize:  64,
		Latency:     mustFleet(core.ParseLatency("straggler:1,10,7")),
		Churn:       &core.ChurnModel{MeanUp: 400, MeanDown: 40},
	}
}

// populationRuns is the population ladder and its two committed
// counters. BenchmarkPopulation times each row; TestPopulationCounters
// runs each gated row once, in this order, and compares:
//
//	bytesPerClient  RunState.Footprint's registry bytes per client at
//	                construction, when no client is built — an exact
//	                function of the spec, the same at every population
//	                size
//	mallocs         heap allocations of the run's event loop (fleet
//	                construction excluded) with 2 shards at GOMAXPROCS 2,
//	                from drained pools and a collected heap; a ceiling
//	                with 2 % of slack, the highest of six runs each in a
//	                process of its own. 0: benchmark only
//
// The 1M rung's loop is not gated: it allocates what the 100k loop does.
// Its construction is, outside -short: building it no longer builds a
// million clients, so its B/client is checked without running it.
var populationRuns = []struct {
	name           string
	spec           func(tb testing.TB, clients int) core.RunSpec
	clients        int
	bytesPerClient float64
	mallocs        uint64
}{
	{"Sync1kClients", syncSpec, 1_000, 24, 307},
	{"Async1kClients", asyncSpec, 1_000, 24, 683},
	{"Sync10kClients", syncSpec, 10_000, 24, 301},
	{"Async10kClients", asyncSpec, 10_000, 24, 676},
	{"AsyncChurn1k", churnSpec, 1_000, 32, 678},
	{"AsyncFedAsync1k", fedAsyncSpec, 1_000, 24, 844},
	{"RobustMerge1k", robustSpec, 1_000, 25, 682},
	{"Async100kClients", scaleSpec, 100_000, 32, 1_195},
	{"Async1MClients", scaleSpec, 1_000_000, 32, 0},
}

// registryBytesPerClient is rs's registry footprint per client.
func registryBytesPerClient(rs *core.RunState) float64 {
	fp := rs.Footprint()
	return float64(fp.RegistryBytes) / float64(fp.Clients)
}

// newPopulationRun constructs the fleet for one run of spec.
func newPopulationRun(tb testing.TB, spec core.RunSpec) *core.RunState {
	tb.Helper()
	spec.Algo = core.NewFedTrip(0.4)
	rs, err := core.NewRunState(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// runPopulation drives the event loop to completion and returns the
// number of events it processed: each dispatch and its arrival.
func runPopulation(tb testing.TB, rs *core.RunState) int64 {
	tb.Helper()
	if _, err := rs.Run(); err != nil {
		tb.Fatal(err)
	}
	_, dispatches := rs.Participation()
	return 2 * dispatches
}

// BenchmarkPopulation meters the event loop: data synthesis and fleet
// construction happen outside the timer.
func BenchmarkPopulation(b *testing.B) {
	for _, p := range populationRuns {
		b.Run(p.name, func(b *testing.B) {
			spec := p.spec(b, p.clients)
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rs := newPopulationRun(b, spec)
				b.StartTimer()
				events += runPopulation(b, rs)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// TestPopulationCounters is the deterministic half of the population
// benchmarks as a tier-1 gate. It fixes its own parallelism — the specs
// pin two shards and the test pins GOMAXPROCS to match — because the
// allocation count of a run follows the number of goroutines that train
// at once.
func TestPopulationCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, p := range populationRuns {
		if p.mallocs == 0 {
			if testing.Short() {
				continue
			}
			rs := newPopulationRun(t, p.spec(t, p.clients))
			if got := registryBytesPerClient(rs); got != p.bytesPerClient {
				t.Errorf("%s: B/client = %v at construction, committed %v", p.name, got, p.bytesPerClient)
			}
			rs.Close()
			continue
		}
		rs := newPopulationRun(t, p.spec(t, p.clients))
		if got := registryBytesPerClient(rs); got != p.bytesPerClient {
			t.Errorf("%s: B/client = %v, committed %v — per-client bookkeeping state changed; "+
				"if intended, edit bytesPerClient in populationRuns (bench_test.go)",
				p.name, got, p.bytesPerClient)
		}
		// Every row starts from empty pools and a collected heap, so its
		// count is its own run's, whatever the rows before it left free.
		core.DrainPools()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runPopulation(t, rs)
		runtime.ReadMemStats(&after)
		got := after.Mallocs - before.Mallocs
		switch ceiling := p.mallocs + p.mallocs/50; {
		case got > ceiling:
			t.Errorf("%s: mallocs = %d per run, committed %d (+2%% = %d) — the event loop allocates more; "+
				"if intended, edit mallocs in populationRuns (bench_test.go)",
				p.name, got, p.mallocs, ceiling)
		case got < p.mallocs-p.mallocs/50:
			t.Logf("%s: mallocs = %d per run, more than 2%% under the committed %d — tighten the constant",
				p.name, got, p.mallocs)
		}
	}

	// The rows above cover the registry, churn and fault-class terms of
	// B/client; a noise adversary adds nothing to the fault class (its
	// clients draw from their own streams), on top of the churning row.
	faults, err := core.ParseFaults("byz:0.1,noise:2+crash:0.05")
	if err != nil {
		t.Fatal(err)
	}
	spec := churnSpec(t, 1_000)
	spec.Faults = faults
	rs := newPopulationRun(t, spec)
	defer rs.Close()
	if got, want := registryBytesPerClient(rs), 33.0; got != want {
		t.Errorf("async+churn+noise faults: B/client = %v, committed %v", got, want)
	}
}

// registry is fp's client registry owner alone.
func registry(fp core.Footprint) core.Footprint {
	return core.Footprint{Clients: fp.Clients, Built: fp.Built, RegistryBytes: fp.RegistryBytes}
}

// TestRegistryFootprint holds the client registry of a lock-step and a
// churning fleet to exact sizes before and after a run: no client is
// built at construction, and a run builds exactly the clients it
// dispatches, a slab chunk (215 cells of 152 B, a Client with its stream
// and its FLOP meter) at a time.
func TestRegistryFootprint(t *testing.T) {
	for _, c := range []struct {
		name          string
		spec          func(tb testing.TB, clients int) core.RunSpec
		before, after core.Footprint
	}{
		{"Sync1kClients", syncSpec,
			core.Footprint{Clients: 1_000, Built: 0, RegistryBytes: 24_000},
			core.Footprint{Clients: 1_000, Built: 121, RegistryBytes: 24_000 + 215*152}},
		{"AsyncChurn1k", churnSpec,
			core.Footprint{Clients: 1_000, Built: 0, RegistryBytes: 32_000},
			core.Footprint{Clients: 1_000, Built: 246, RegistryBytes: 32_000 + 430*152}},
	} {
		rs := newPopulationRun(t, c.spec(t, 1_000))
		if got := registry(rs.Footprint()); got != c.before {
			t.Errorf("%s: footprint before the run %+v, committed %+v", c.name, got, c.before)
		}
		runPopulation(t, rs)
		if got := registry(rs.Footprint()); got != c.after {
			t.Errorf("%s: footprint after the run %+v, committed %+v", c.name, got, c.after)
		}
		if distinct, _ := rs.Participation(); rs.Footprint().Built != distinct {
			t.Errorf("%s: %d clients built, %d dispatched", c.name, rs.Footprint().Built, distinct)
		}
	}
}
