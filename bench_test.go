// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper, each printing the reproduced rows.
//
//	go test -bench=. -benchmem                  # fast profile (~minutes)
//	go test -bench=. -short                     # tiny profile (smoke)
//	go test -bench=BenchmarkTable4 -benchmem    # a single artifact
//
// Benchmarks share the experiments package's run cache, so artifacts that
// reuse the same federated runs (Table IV / Table V / Fig. 5) only pay for
// them once per process.
package repro

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/partition"
)

var (
	benchMu     sync.Mutex
	benchTables = map[string]bool{} // ids already rendered this process
)

func benchProfile() experiments.Profile {
	if testing.Short() {
		return experiments.Tiny()
	}
	return experiments.Fast()
}

// benchExperiment runs one registered experiment. The first execution per
// process renders its tables to stdout — the bench harness is also the
// table generator.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	p := benchProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchMu.Lock()
		if !benchTables[id] {
			benchTables[id] = true
			fmt.Fprintf(os.Stdout, "\n")
			for _, t := range tables {
				t.Render(os.Stdout)
			}
		}
		benchMu.Unlock()
	}
}

// Table I: method families, information utilization vs resource cost.
func BenchmarkTable1MethodFamilies(b *testing.B) { benchExperiment(b, "table1") }

// Table II: dataset description.
func BenchmarkTable2DatasetStats(b *testing.B) { benchExperiment(b, "table2") }

// Table III: model communication/computation statistics.
func BenchmarkTable3ModelStats(b *testing.B) { benchExperiment(b, "table3") }

// Table IV: communication rounds until target accuracy (Dir-0.5, 4-of-10).
func BenchmarkTable4RoundsToTarget(b *testing.B) { benchExperiment(b, "table4") }

// Table V: GFLOPs until target accuracy.
func BenchmarkTable5GFLOPs(b *testing.B) { benchExperiment(b, "table5") }

// Table VI: rounds to target with 4-of-50 participation.
func BenchmarkTable6Scalability(b *testing.B) { benchExperiment(b, "table6") }

// Table VII: accuracy at rounds 10/20 with 5 and 10 local epochs.
func BenchmarkTable7LocalEpochs(b *testing.B) { benchExperiment(b, "table7") }

// Table VIII (Appendix A): analytic attaching cost per method.
func BenchmarkTable8AttachingCost(b *testing.B) { benchExperiment(b, "table8") }

// Fig. 2: representation separability (t-SNE + silhouette motivation).
func BenchmarkFig2TSNE(b *testing.B) { benchExperiment(b, "fig2") }

// Fig. 3: update-geometry mechanism (global-local divergence vs
// current-historical distance).
func BenchmarkFig3Mechanism(b *testing.B) { benchExperiment(b, "fig3") }

// Fig. 4: client label distributions under the four heterogeneity types.
func BenchmarkFig4LabelDistributions(b *testing.B) { benchExperiment(b, "fig4") }

// Fig. 5: convergence curves of the CNN across datasets and schemes.
func BenchmarkFig5ConvergenceCurves(b *testing.B) { benchExperiment(b, "fig5") }

// Fig. 6: final-accuracy boxplots on FMNIST.
func BenchmarkFig6FinalAccuracyBox(b *testing.B) { benchExperiment(b, "fig6") }

// Fig. 7: FedTrip mu sensitivity.
func BenchmarkFig7MuSensitivity(b *testing.B) { benchExperiment(b, "fig7") }

// Theorem 1: empirical E[xi] vs the closed form p*ln(p)/(p-1).
func BenchmarkTheoryXi(b *testing.B) { benchExperiment(b, "theory-xi") }

// Theorem 1: decrease coefficient rho from measured smoothness (L) and
// gradient-dissimilarity (B) constants.
func BenchmarkTheoryRho(b *testing.B) { benchExperiment(b, "theory-rho") }

// Extension: FedTrip with a quantized uplink (rounds x bytes compose).
func BenchmarkExtQuantizedUplink(b *testing.B) { benchExperiment(b, "ext-quant") }

// Ablation: xi schedule (inverse-gap vs gap vs fixed).
func BenchmarkAblationXi(b *testing.B) { benchExperiment(b, "abl-xi") }

// Ablation: triplet terms in isolation.
func BenchmarkAblationHistoryOnly(b *testing.B) { benchExperiment(b, "abl-hist") }

// Ablation: appendix methods (SCAFFOLD/FedDANE/MimeLite) resource costs.
func BenchmarkAblationAppendixMethods(b *testing.B) { benchExperiment(b, "abl-extra") }

// Time to accuracy under stragglers: barrier vs FedBuff vs FedAsync
// aggregation policies through the unified RunSpec facade.
func BenchmarkTimeToAccuracy(b *testing.B) { benchExperiment(b, "tta") }

// --- Runtime throughput: synchronous vs asynchronous ---
//
// Both benchmarks meter client updates per second of real wall-clock time
// (the simulated latency clock is free). Run with -cpu 1,2,4,8 to see how
// each runtime scales with GOMAXPROCS: the async event loop keeps
// Concurrency clients training in their own goroutines, so its
// updates/sec grows with cores until Concurrency saturates.

// benchRuntimeConfig is a small-but-real FL setup: 16 clients, MLP,
// MNIST-like data.
func benchRuntimeConfig(b *testing.B) core.Config {
	b.Helper()
	const clients, perClient = 16, 40
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 100, Seed: 61,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(62)))
	if err != nil {
		b.Fatal(err)
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
			Latency:     core.UniformLatency{Min: 1, Max: 3},
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

// --- Population scale: 1k and 10k clients ---
//
// These benchmarks are the CI perf trajectory (BENCH_3.json tracks
// their ns/op and allocs/op per PR, and cmd/benchdiff reports the delta
// against the previous artifact). Clients hold 6 samples each; the
// quarter-width MLP keeps per-shard engines small so the numbers measure
// the runtime — registry, heap event loop, dispatch, engine pool — rather
// than raw matmul throughput. Evaluation is disabled (EvalEvery past the
// horizon) for the same reason.

// benchPopulationConfig builds the fleet. Setup (data synthesis and
// partitioning) runs outside the timer.
func benchPopulationConfig(b *testing.B, clients int) core.Config {
	b.Helper()
	const perClient = 6
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 100, Seed: 81,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(82)))
	if err != nil {
		b.Fatal(err)
	}
	return core.Config{
		Model: nn.ModelSpec{
			Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25,
		},
		Train: train, Test: test, Parts: parts,
		Rounds: 4, ClientsPerRound: 32,
		BatchSize: perClient, LocalEpochs: 1,
		LR: 0.01, Momentum: 0.9,
		Algo: core.NewFedTrip(0.4), Seed: 83,
		EvalEvery: 1 << 20,
	}
}

func benchSyncPopulation(b *testing.B, clients int) {
	cfg := benchPopulationConfig(b, clients)
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

func benchAsyncPopulation(b *testing.B, clients int) {
	cfg := benchPopulationConfig(b, clients)
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		c := core.RunSpec{
			Config:      cfg,
			Runtime:     core.RuntimeAsync,
			Concurrency: 128,
			BufferSize:  32,
			Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
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

func BenchmarkSync1kClients(b *testing.B)   { benchSyncPopulation(b, 1_000) }
func BenchmarkAsync1kClients(b *testing.B)  { benchAsyncPopulation(b, 1_000) }
func BenchmarkSync10kClients(b *testing.B)  { benchSyncPopulation(b, 10_000) }
func BenchmarkAsync10kClients(b *testing.B) { benchAsyncPopulation(b, 10_000) }

// BenchmarkAsyncChurn1k measures the device-heterogeneity event loop at
// 1k-client scale: lognormal FLOP-coupled device speeds (arrivals priced
// by metered FLOPs, joined at dispatch), adaptive local steps, Markov
// availability churn, and the max-staleness admission cutoff — the full
// hetero scenario machinery on top of the buffered runtime.
func BenchmarkAsyncChurn1k(b *testing.B) {
	cfg := benchPopulationConfig(b, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		spec := core.RunSpec{
			Config:             cfg,
			Runtime:            core.RuntimeAsync,
			Concurrency:        128,
			BufferSize:         32,
			Devices:            core.LognormalDevices{Mu: 0, Sigma: 0.6},
			FlopRate:           1e6,
			AdaptiveLocalSteps: true,
			Churn:              &core.ChurnModel{MeanUp: 30, MeanDown: 3},
			Policy:             core.WithMaxStaleness(&core.FedBuffPolicy{}, 8),
		}
		spec.Algo = core.NewFedTrip(0.4)
		res, err := core.Start(spec)
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Rounds * 32
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
}

// BenchmarkAsyncFedAsync1k measures the FedAsync single-arrival path
// (aggregation policy BufferSize=1 with mixing-rate merges) at 1k-client
// scale through the unified RunSpec facade. The round budget is scaled so
// the run processes the same 128 client updates as the buffered
// benchmark's 4 aggregations of 32 — the numbers meter the per-merge
// overhead of merging on every arrival.
func BenchmarkAsyncFedAsync1k(b *testing.B) {
	cfg := benchPopulationConfig(b, 1_000)
	cfg.Rounds = 128
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		spec := core.RunSpec{
			Config:      cfg,
			Runtime:     core.RuntimeAsync,
			Concurrency: 128,
			Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
			Policy:      &core.FedAsyncPolicy{Alpha: 0.6},
		}
		spec.Algo = core.NewFedTrip(0.4)
		res, err := core.Start(spec)
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Rounds // one merged update per aggregation
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
}

// BenchmarkRobustMerge1k measures the robust aggregation path at
// 1k-client scale: a 20% sign-flipping / 5% crashing fleet merged with
// the coordinate-wise median (in-place heapsort over the per-coordinate
// column, non-finite screen in front). The CI perf trajectory gates this
// benchmark's allocs/op — the robust estimators must stay on the pooled,
// allocation-free merge path.
func BenchmarkRobustMerge1k(b *testing.B) {
	cfg := benchPopulationConfig(b, 1_000)
	faults, err := core.ParseFaults("byz:0.2,signflip+crash:0.05")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		spec := core.RunSpec{
			Config:      cfg,
			Runtime:     core.RuntimeAsync,
			Concurrency: 128,
			BufferSize:  32,
			Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
			Policy:      &core.MedianPolicy{},
			Faults:      faults,
		}
		spec.Algo = core.NewFedTrip(0.4)
		res, err := core.Start(spec)
		if err != nil {
			b.Fatal(err)
		}
		updates += res.Rounds * 32
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/sec")
}

// --- Population scale: 100k and 1M clients ---
//
// The scale trajectory: clients share a small sample pool (overlapping
// indices), so the dataset stays tiny while the runtime's per-client
// machinery — registry, heap slot map, aggregate churn, stateless
// device/latency derivation — runs at full population width. Fleet
// construction happens outside the timer; the metered section is the
// event loop. Two metrics ride into the CI artifact:
//
//	events/s   dispatch+arrival events processed per wall-clock second
//	           (higher is better; benchdiff knows the direction)
//	B/client   the runtime's deterministic per-client bookkeeping bytes
//	           (RunState.PerClientStateBytes — gated next to allocs/op)

func benchScaleSpec(b *testing.B, clients int) core.RunSpec {
	b.Helper()
	const perClient, pool = 4, 2000
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: pool, Test: 100, Seed: 91,
	})
	if err != nil {
		b.Fatal(err)
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
			Algo: core.NewFedTrip(0.4), Seed: 93,
			EvalEvery: 1 << 20,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: 256,
		BufferSize:  64,
		Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
		Churn:       &core.ChurnModel{MeanUp: 400, MeanDown: 40},
	}
}

func benchScalePopulation(b *testing.B, clients int) {
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	var perClientBytes float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := benchScaleSpec(b, clients)
		rs, err := core.NewRunState(spec)
		if err != nil {
			b.Fatal(err)
		}
		perClientBytes = rs.PerClientStateBytes()
		b.StartTimer()
		if _, err := rs.Run(); err != nil {
			b.Fatal(err)
		}
		_, dispatches := rs.Participation()
		events += 2 * dispatches // each dispatch and its arrival
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(perClientBytes, "B/client")
}

func BenchmarkAsync100kClients(b *testing.B) { benchScalePopulation(b, 100_000) }
func BenchmarkAsync1MClients(b *testing.B)   { benchScalePopulation(b, 1_000_000) }
