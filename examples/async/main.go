// Sync vs async: time-to-target-accuracy under stragglers.
//
// A lock-step round costs the slowest selected client's latency, so a
// fleet with stragglers pays the straggler tax every round. The buffered
// asynchronous runtime aggregates on arrival and never waits for the
// tail — at the price of merging stale updates, which the staleness
// discount and FedTrip's xi schedule absorb.
//
// This example runs FedTrip, FedAvg, and FedProx through the unified
// core.Start facade on three runtime/policy combinations under the same
// straggler latency model — the lock-step barrier, FedBuff-style
// buffered aggregation (merge every 2 arrivals), and FedAsync
// single-arrival mixing — and compares the simulated wall-clock time
// each needs to reach a target accuracy. It then scales the fleet to
// 10,000 clients — the cross-device population regime the paper targets
// — to show the event loop, the sharded engine pool, and the off-loop
// evaluator holding up at population scale.
//
//	go run ./examples/async
//
// -scenario churn runs the device-heterogeneity scenario instead: the
// same 10k-client fleet with lognormal FLOP-coupled device speeds,
// adaptive local steps, ~10% of clients offline at any time (Markov
// churn), a mid-run mass-dropout event, and a max-staleness admission
// cutoff absorbing the rejoin updates.
//
//	go run ./examples/async -scenario churn
//
// -scenario scale runs the population-scale trajectory: a churning
// straggler fleet whose clients share a small sample pool, so the
// population width — not the dataset — is what grows. 100k clients by
// default; -clients raises it (CI runs 1M on pushes to main):
//
//	go run ./examples/async -scenario scale
//	go run ./examples/async -scenario scale -clients 1000000
//
// -scenario participation runs the low-participation ladder (the
// paper's §V.D): FedTrip vs FedAvg at 4-of-10 and 4-of-50 participation
// plus the xi schedule a client actually sees.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/stats"
)

func main() {
	scenario := flag.String("scenario", "", "\"\" = sync-vs-async comparison + 10k straggler fleet; \"churn\" = 10k-client device-heterogeneity/churn scenario; \"scale\" = 100k+ population trajectory; \"participation\" = low-participation ladder")
	nClients := flag.Int("clients", 100_000, "fleet size for -scenario scale")
	flag.Parse()
	switch *scenario {
	case "churn":
		churnScenario()
		return
	case "scale":
		scaleScenario(*nClients)
		return
	case "participation":
		participationLadder()
		return
	}
	const (
		clients   = 10
		perClient = 60
		target    = 0.60
		rounds    = 40
	)
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 300, Seed: 51,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(52)))
	if err != nil {
		log.Fatal(err)
	}
	// Every third client is a 10x straggler.
	latency := core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 3}
	base := func(method string) core.RunSpec {
		algo, err := algos.New(method, algos.Params{})
		if err != nil {
			log.Fatal(err)
		}
		return core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{
					Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10,
				},
				Train: train, Test: test, Parts: parts,
				Rounds: rounds, ClientsPerRound: 4,
				BatchSize: 10, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: algo, Seed: 53,
				TargetAccuracy: target,
			},
			Latency: latency,
		}
	}
	variants := []struct {
		label string
		spec  func(method string) core.RunSpec
	}{
		// Sync: the barrier runtime is the lock-step loop priced under
		// the latency model (at zero latency it is the sync runtime,
		// bit-for-bit).
		{"sync", func(m string) core.RunSpec {
			sp := base(m)
			sp.Runtime = core.RuntimeBarrier
			return sp
		}},
		// FedBuff: buffered aggregation, merge every 2 arrivals, 4 in
		// flight, staleness discount (1+s)^-0.5.
		{"fedbuff", func(m string) core.RunSpec {
			sp := base(m)
			sp.Runtime = core.RuntimeAsync
			sp.Concurrency = 4
			sp.BufferSize = 2
			return sp
		}},
		// FedAsync: single-arrival mixing at rate 0.6*(1+s)^-0.5 — every
		// arrival merges immediately, nothing ever waits. Rounds counts
		// aggregations, so doubling it processes the same number of
		// client updates as the buffer-of-2 FedBuff run.
		{"fedasync", func(m string) core.RunSpec {
			sp := base(m)
			sp.Runtime = core.RuntimeAsync
			sp.Concurrency = 4
			sp.Rounds = 2 * rounds
			sp.Policy = &core.FedAsyncPolicy{Alpha: 0.6}
			return sp
		}},
	}
	fmt.Printf("straggler fleet (%s), target accuracy %.0f%%\n", latency, target*100)
	fmt.Printf("%-8s  %12s  %12s  %12s  %10s  %10s\n",
		"method", "sync t (s)", "fedbuff (s)", "fedasync (s)", "buff spdup", "asyn spdup")
	for _, method := range []string{"fedtrip", "fedavg", "fedprox"} {
		times := make([]*core.Result, len(variants))
		for i, v := range variants {
			res, err := core.Start(v.spec(method))
			if err != nil {
				log.Fatal(err)
			}
			times[i] = res
		}
		fmtTime := func(r *core.Result) string {
			if r.RoundsToTarget < 0 {
				return fmt.Sprintf(">%.0f", r.TimeToTarget())
			}
			return fmt.Sprintf("%.1f", r.TimeToTarget())
		}
		speedup := func(sync, async *core.Result) string {
			if sync.RoundsToTarget > 0 && async.RoundsToTarget > 0 && async.TimeToTarget() > 0 {
				return fmt.Sprintf("%.1fx", sync.TimeToTarget()/async.TimeToTarget())
			}
			return "-"
		}
		fmt.Printf("%-8s  %12s  %12s  %12s  %10s  %10s\n", method,
			fmtTime(times[0]), fmtTime(times[1]), fmtTime(times[2]),
			speedup(times[0], times[1]), speedup(times[0], times[2]))
	}
	fmt.Println("\nsync = round barrier (each round waits for its slowest client);")
	fmt.Println("fedbuff = buffer of 2, staleness discount (1+s)^-0.5;")
	fmt.Println("fedasync = single-arrival merge, mixing rate 0.6*(1+s)^-0.5.")

	tenThousandClients()
}

// tenThousandClients runs the population-scale straggler scenario: 10,000
// clients, 256 in flight in simulated time, a handful of real training
// engines. Idle clients are registry entries, so the fleet fits in a CI
// runner's memory and the run finishes in well under two minutes.
func tenThousandClients() {
	const (
		clients   = 10_000
		perClient = 6
		aggs      = 30
		buffer    = 64
		inflight  = 256
	)
	start := time.Now()
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 200, Seed: 61,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(62)))
	if err != nil {
		log.Fatal(err)
	}
	algo, err := algos.New("fedtrip", algos.Params{})
	if err != nil {
		log.Fatal(err)
	}
	spec := core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: aggs, ClientsPerRound: buffer,
			BatchSize: perClient, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: algo, Seed: 63,
			EvalEvery: 10,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: inflight,
		BufferSize:  buffer,
		// Every 7th client is a 10x straggler: ~1400 slow devices.
		Latency: core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
	}
	rs, err := core.NewRunState(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n10k-client straggler fleet: %d clients, %d in flight, buffer %d, %d aggregations\n",
		clients, inflight, buffer, aggs)
	res, err := rs.Run()
	if err != nil {
		log.Fatal(err)
	}
	distinct, dispatches := rs.Participation()
	runtime.GC() // settle the heap so the reported footprint is live data
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	defer runtime.KeepAlive(rs) // keep the fleet live through the measurement
	fmt.Printf("  final accuracy        %.4f (best %.4f)\n", res.FinalAccuracy, res.BestAccuracy)
	fmt.Printf("  simulated time        %.1f s over %d aggregations\n", res.SimTimeByRound[len(res.SimTimeByRound)-1], res.Rounds)
	fmt.Printf("  mean staleness (last) %.2f aggregations\n", res.MeanStalenessByRound[len(res.MeanStalenessByRound)-1])
	fmt.Printf("  fleet coverage        %d distinct clients over %d dispatches\n", distinct, dispatches)
	fmt.Printf("  train GFLOPs          %.2f\n", res.TotalGFLOPs())
	fmt.Printf("  heap in use           %.0f MB (population + data + engines and in-flight work)\n", float64(mem.HeapInuse)/1e6)
	fmt.Printf("  wall clock            %.1f s\n", time.Since(start).Seconds())
}

// churnScenario is the device-heterogeneity acceptance scenario: 10,000
// clients whose dispatch latency is their metered FLOPs over a
// lognormally distributed device speed (adaptive local steps shrink the
// slow tail's rounds), with ~10% of the fleet offline at any moment
// under Markov churn, a mass-dropout event killing 20% of devices for a
// stretch mid-run, and a FedBuff+max-staleness policy admitting only
// updates at most 16 aggregations stale. Runs in well under the CI
// job's two-minute timeout.
func churnScenario() {
	const (
		clients   = 10_000
		perClient = 6
		aggs      = 30
		buffer    = 64
		inflight  = 256
	)
	start := time.Now()
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: clients * perClient, Test: 200, Seed: 71,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := partition.Partition(partition.IID(), train.Y,
		train.Classes, clients, perClient, rand.New(rand.NewSource(72)))
	if err != nil {
		log.Fatal(err)
	}
	algo, err := algos.New("fedtrip", algos.Params{})
	if err != nil {
		log.Fatal(err)
	}
	spec := core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: aggs, ClientsPerRound: buffer,
			// Batch 2 over 6 samples = 3 mini-batch steps per round, so
			// the adaptive budget has room to shrink on the slow tail.
			BatchSize: 2, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: algo, Seed: 73,
			EvalEvery: 10,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: inflight,
		BufferSize:  buffer,
		// Heavy-tailed device speeds, FLOP-coupled: a 0.25x device takes
		// 4x the virtual time of the median — unless adaptive steps cut
		// its round short. The reference throughput is scaled to the toy
		// model so a median device's round lasts a few virtual seconds
		// (what a real CNN costs at phone-class GFLOP/s rates).
		Devices:            core.LognormalDevices{Mu: 0, Sigma: 0.75},
		FlopRate:           1e6,
		AdaptiveLocalSteps: true,
		// ~10% offline in steady state (90s up / 10s down — an outage
		// spans tens of aggregations, far past the staleness cutoff, so
		// rejoin uploads of clients that dropped mid-flight are
		// admission-filtered, not just damped), plus a mass event: 20%
		// of the fleet gone for 5 virtual seconds mid-run, rejoining
		// before the end.
		Churn: &core.ChurnModel{
			MeanUp: 90, MeanDown: 10,
			Drops: []core.MassDrop{{At: 5, Fraction: 0.2, Duration: 5}},
		},
		Policy: core.WithMaxStaleness(&core.FedBuffPolicy{}, 16),
	}
	rs, err := core.NewRunState(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10k-client churn fleet: %d clients, %d in flight, buffer %d, %d aggregations\n",
		clients, inflight, buffer, aggs)
	fmt.Printf("  devices lognormal(0,0.75), adaptive steps, markov:90,10 churn + 20%% mass drop, maxstale:16\n")
	res, err := rs.Run()
	if err != nil {
		log.Fatal(err)
	}
	distinct, dispatches := rs.Participation()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	defer runtime.KeepAlive(rs)
	fmt.Printf("  final accuracy        %.4f (best %.4f)\n", res.FinalAccuracy, res.BestAccuracy)
	fmt.Printf("  simulated time        %.3f s over %d aggregations\n", res.SimTimeByRound[len(res.SimTimeByRound)-1], res.Rounds)
	fmt.Printf("  mean staleness (last) %.2f aggregations\n", res.MeanStalenessByRound[len(res.MeanStalenessByRound)-1])
	fmt.Printf("  dropped updates       %d (permanently dropped clients)\n", res.DroppedUpdates)
	fmt.Printf("  offline right now     %d of %d clients\n", rs.Offline(), clients)
	fmt.Printf("  fleet coverage        %d distinct clients over %d dispatches\n", distinct, dispatches)
	fmt.Printf("  train GFLOPs          %.2f\n", res.TotalGFLOPs())
	fmt.Printf("  heap in use           %.0f MB (population + data + engines and in-flight work)\n", float64(mem.HeapInuse)/1e6)
	fmt.Printf("  wall clock            %.1f s\n", time.Since(start).Seconds())
}

// scaleScenario is the population-scale acceptance scenario: n clients
// (100k by default, 1M on CI pushes to main) sharing a 2000-sample pool,
// every 7th a 10x straggler, ~9% offline under aggregate Markov churn
// plus a mid-run mass-dropout event. Per-client runtime state is compact
// and mostly derived statelessly from seed streams, so the heap grows by
// ~200 B per client — the printed B/client figure is the same
// deterministic accessor the root TestPopulationCounters pins exactly.
func scaleScenario(clients int) {
	const (
		perClient = 4
		pool      = 2000
		aggs      = 30
		buffer    = 64
		inflight  = 256
	)
	start := time.Now()
	train, test, err := data.Generate(data.Spec{
		Kind: data.KindMNIST, Train: pool, Test: 200, Seed: 81,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Clients overlap in the pool: the dataset is O(pool), the fleet is
	// O(clients) — population width is the variable under test.
	rng := rand.New(rand.NewSource(82))
	parts := make([][]int, clients)
	flat := make([]int, clients*perClient)
	for i := range parts {
		p := flat[i*perClient : (i+1)*perClient : (i+1)*perClient]
		for k := range p {
			p[k] = rng.Intn(pool)
		}
		parts[i] = p
	}
	algo, err := algos.New("fedtrip", algos.Params{})
	if err != nil {
		log.Fatal(err)
	}
	spec := core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{
				Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25,
			},
			Train: train, Test: test, Parts: parts,
			Rounds: aggs, ClientsPerRound: buffer,
			BatchSize: perClient, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: algo, Seed: 83,
			EvalEvery: 10,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: inflight,
		BufferSize:  buffer,
		Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
		// Long phases relative to dispatch latencies: ~9% offline in
		// steady state, fleet-level drop/rejoin sampled from two aggregate
		// exponential clocks. The mass event suspends 10% mid-run.
		Churn: &core.ChurnModel{
			MeanUp: 400, MeanDown: 40,
			Drops: []core.MassDrop{{At: 10, Fraction: 0.1, Duration: 10}},
		},
	}
	rs, err := core.NewRunState(spec)
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	fmt.Printf("%d-client scale fleet: %d in flight, buffer %d, %d aggregations, markov:400,40 churn + 10%% mass drop\n",
		clients, inflight, buffer, aggs)
	res, err := rs.Run()
	if err != nil {
		log.Fatal(err)
	}
	distinct, dispatches := rs.Participation()
	events := 2 * dispatches // each dispatch and its arrival
	runtime.GC()             // settle the heap so the reported footprint is live data
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	defer runtime.KeepAlive(rs)
	fmt.Printf("  final accuracy        %.4f (best %.4f)\n", res.FinalAccuracy, res.BestAccuracy)
	fmt.Printf("  simulated time        %.1f s over %d aggregations\n", res.SimTimeByRound[len(res.SimTimeByRound)-1], res.Rounds)
	fmt.Printf("  fleet coverage        %d distinct clients over %d dispatches\n", distinct, dispatches)
	fmt.Printf("  offline right now     %d of %d clients\n", rs.Offline(), clients)
	fmt.Printf("  dropped updates       %d\n", res.DroppedUpdates)
	fmt.Printf("  per-client state      %.0f B/client (deterministic; pinned in tier-1)\n", rs.PerClientStateBytes())
	fmt.Printf("  event throughput      %.0f events/s (%d dispatch+arrival events)\n",
		float64(events)/time.Since(start).Seconds(), events)
	fmt.Printf("  heap in use           %.0f MB (population + data + engines and in-flight work)\n", float64(mem.HeapInuse)/1e6)
	fmt.Printf("  wall clock            %.1f s (%.1f s fleet construction)\n",
		time.Since(start).Seconds(), built.Seconds())
}

// participationLadder is the low-participation scalability ladder (the
// paper's §V.D), folded in from the former examples/scalability: with 4
// of 50 clients per round each client participates rarely, so FedTrip's
// historical models grow stale and its staleness-scaled xi matters.
// Compares FedTrip and FedAvg at 4-of-10 vs 4-of-50 participation and
// prints the xi schedule a FedTrip client actually sees.
func participationLadder() {
	const perClient = 50
	for _, clients := range []int{10, 50} {
		train, test, err := data.Generate(data.Spec{
			Kind: data.KindMNIST, Train: clients * perClient, Test: 300, Seed: 31,
		})
		if err != nil {
			log.Fatal(err)
		}
		parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y,
			train.Classes, clients, perClient, rand.New(rand.NewSource(32)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== 4-of-%d participation (rate %.0f%%) ===\n", clients, 400.0/float64(clients))

		var fedavgFinal float64
		for _, method := range []string{"fedavg", "fedtrip"} {
			algo, err := algos.New(method, algos.Params{Mu: 1.0})
			if err != nil {
				log.Fatal(err)
			}
			res, err := core.Start(core.RunSpec{Config: core.Config{
				Model: nn.ModelSpec{
					Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10,
				},
				Train: train, Test: test, Parts: parts,
				Rounds: 25, ClientsPerRound: 4,
				BatchSize: 10, LocalEpochs: 1,
				LR: 0.01, Momentum: 0.9,
				Algo: algo, Seed: 33,
			}})
			if err != nil {
				log.Fatal(err)
			}
			if method == "fedavg" {
				fedavgFinal = res.FinalAccuracy
				fmt.Printf("  %-8s final %.4f\n", method, res.FinalAccuracy)
			} else {
				target := 0.97 * fedavgFinal
				rt := stats.RoundsToTarget(res.Accuracy, target)
				rtStr := fmt.Sprintf("%d", rt)
				if rt < 0 {
					rtStr = ">25"
				}
				fmt.Printf("  %-8s final %.4f, rounds to FedAvg bar (%.4f): %s\n",
					method, res.FinalAccuracy, target, rtStr)
			}
		}

		// Show the xi schedule a client experiences at this participation
		// rate: xi = 1/gap, so rare participation -> small xi, matching
		// the paper's E[xi] = p*ln(p)/(p-1) analysis.
		f := core.NewFedTrip(1.0)
		rng := rand.New(rand.NewSource(34))
		last := 0
		var xis []float64
		for round := 1; round <= 200; round++ {
			if rng.Float64() < 4.0/float64(clients) { // participates
				if xi := f.Xi(round, last); last > 0 {
					xis = append(xis, xi)
				}
				last = round
			}
		}
		fmt.Printf("  simulated E[xi] at this rate: %.3f over %d participations\n\n",
			stats.Mean(xis), len(xis))
	}
}
