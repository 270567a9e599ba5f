package main

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// corpusSize is the Table II MNIST corpus. Every workload synthesises all
// of it, whatever share its fleet then trains on, so one set-up build is
// ~0.4 s: builds of 20-50 ms disagreed by 15-20 % between processes on the
// 2-vCPU reference box, builds of this size agree within a few percent.
const corpusSize = 60000

// runSeed is Config.Seed of every run. The -seed flag seeds the inputs
// (corpus synthesis and partition) only; selection, churn, device and
// fault draws stay fixed, so the simulated totals (GFLOPs, wire bytes) are
// the same for every input seed and can carry a near-zero bound.
const runSeed = 7

// workload is one named benchmark scenario: a fleet, a model, a runtime
// configuration in the CLI spec grammars, and the size of one pass.
type workload struct {
	name, why string

	clients, perClient int
	// scheme partitions the corpus: "dirichlet", "iid", or "shared"
	// (every client draws perClient indices from the whole corpus with
	// replacement — the only way 100k clients fit 60k samples).
	scheme string
	model  nn.ModelSpec
	batch  int
	k      int // ClientsPerRound (the sync merge size)
	// testN samples are synthesised for evaluation; evalEvery 0 turns
	// per-round evaluation off (only the final round evaluates).
	testN, evalEvery int

	runtime             core.Runtime
	concurrency, buffer int
	latency, devices    string
	flopRate            float64
	network, churn      string
	policy, faults      string
	transport           string

	// rounds is the size of one pass; ckptAfter > 0 puts one
	// Snapshot -> Close -> Resume cycle after that round.
	rounds, ckptAfter int
	// mustLearn fails a pass whose last-round mean training loss is not
	// below its first round's. Only paper_cnn sets it: a 2 s CNN pass is
	// four rounds, where test accuracy is still 0.12-0.47 depending on the
	// input seed and no accuracy floor holds, but the loss falls from
	// ~3.5 to 1.3-2.2 on every seed tried.
	mustLearn bool
	// gemm is the model's dominant MatMul shape (m, k, n) for the
	// tensor.gemm probe.
	gemm [3]int
}

func mlp(scale float64) nn.ModelSpec {
	return nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: scale}
}

// workloads is the benchmark. Sizes are per pass and chosen so a pass is
// ~2-3 s on the reference box (2 vCPU); see README.md for the measured
// layer shares behind each "why".
var workloads = []workload{
	{
		name: "paper_cnn",
		why:  "the paper's default cell (N=10, K=4, CNN, FedTrip, Dir-0.5): tensor GEMM/im2col and nn dominate, fleet, wire and merge are ~0, and it alone has the evaluator on the path",

		clients: 10, perClient: 200, scheme: "dirichlet",
		model: nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10},
		batch: 50, k: 4, testN: 500, evalEvery: 1,
		runtime: core.RuntimeSync,
		rounds:  4, mustLearn: true,
		gemm: [3]int{16, 150, 100}, // conv2: filters x (inC*5*5) x output positions
	},
	{
		name: "fleet100k_churn",
		why:  "100k churning one-sample clients, quarter-width MLP: forward+backward is a small share; per-update state, vector passes, merge, event loop, churn and hand-off are the pass, state_heap_mb its footprint",

		clients: 100000, perClient: 1, scheme: "shared",
		model: mlp(0.25), batch: 1, k: 64, testN: 100,
		runtime: core.RuntimeAsync, concurrency: 256, buffer: 64,
		devices: "tiered", flopRate: 1e6, churn: "markov:400,40",
		policy: "fedbuff+maxstale:8",
		rounds: 130,
		gemm:   [3]int{1, 784, 25},
	},
	{
		name: "wire1k_topk_median",
		why:  "top-k+error-feedback uplink, Byzantine faults and a coordinate-wise median on 1k clients: codec selection, residual vector ops and the robust merge dominate, training is a minority",

		clients: 1000, perClient: 6, scheme: "iid",
		model: mlp(1), batch: 6, k: 32, testN: 100,
		runtime: core.RuntimeAsync, concurrency: 128, buffer: 32,
		latency: "straggler:1,10,7", network: "tiered",
		policy: "median", faults: "byz:0.2,signflip+crash:0.05",
		transport: "topk:0.01+ef",
		rounds:    20,
		gemm:      [3]int{6, 784, 100},
	},
	{
		name: "sync10k_f32_ckpt",
		why:  "the same comm/merge/snapshot layers used the other way: dense f32 encode, weighted mean, lock-step rounds on 10k clients, with a snapshot->resume cycle inside the pass",

		clients: 10000, perClient: 6, scheme: "iid",
		model: mlp(0.5), batch: 6, k: 64, testN: 100,
		runtime:   core.RuntimeSync,
		transport: "f32",
		rounds:    20, ckptAfter: 10,
		gemm: [3]int{6, 784, 50},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// withRounds resizes a pass, keeping a checkpoint cycle at its midpoint.
func (w workload) withRounds(n int) workload {
	w.rounds = n
	if w.ckptAfter > 0 {
		w.ckptAfter = n / 2
	}
	return w
}

// updatesPerRound is how many client updates one Step merges.
func (w workload) updatesPerRound() int {
	if w.runtime == core.RuntimeSync {
		return w.k
	}
	return w.buffer
}

// evalsPerPass is how many evaluations one pass submits; the final round
// always evaluates.
func (w workload) evalsPerPass() int {
	if w.evalEvery == 0 {
		return 1
	}
	return w.rounds / w.evalEvery
}

// inputs is what a seed generates: the program under test only ever sees
// these.
type inputs struct {
	train, test *data.Dataset
	parts       [][]int
}

// generate synthesises the corpus and partitions it. trainN is corpusSize
// except in the unit tests' miniatures.
func (w workload) generate(seed int64, trainN int, tr *tracer) (inputs, error) {
	sp := tr.begin("data.generate")
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: trainN, Test: w.testN, Seed: seed})
	tr.end(sp)
	if err != nil {
		return inputs{}, err
	}
	sp = tr.begin("partition.partition")
	defer tr.end(sp)
	rng := rand.New(rand.NewSource(seed + 1))
	var parts [][]int
	switch w.scheme {
	case "shared":
		flat := make([]int, w.clients*w.perClient)
		for i := range flat {
			flat[i] = rng.Intn(trainN)
		}
		parts = make([][]int, w.clients)
		for i := range parts {
			parts[i] = flat[i*w.perClient : (i+1)*w.perClient : (i+1)*w.perClient]
		}
	case "dirichlet":
		parts, err = partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, w.clients, w.perClient, rng)
	case "iid":
		parts, err = partition.Partition(partition.IID(), train.Y, train.Classes, w.clients, w.perClient, rng)
	default:
		err = fmt.Errorf("workload %s: unknown partition scheme %q", w.name, w.scheme)
	}
	return inputs{train: train, test: test, parts: parts}, err
}

// spec parses the workload's spec strings into a fresh RunSpec: a new
// Algorithm, Transport, policy and fault model every time, because
// error-feedback residuals and resolved policy defaults must never leak
// from one pass into the next.
func (w workload) spec(in inputs, shards int) (core.RunSpec, error) {
	sp := core.RunSpec{
		Config: core.Config{
			Model: w.model,
			Train: in.train, Test: in.test, Parts: in.parts,
			Rounds: w.rounds, ClientsPerRound: w.k,
			BatchSize: w.batch, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9,
			Algo: core.NewFedTrip(0.4), Seed: runSeed,
			Shards:    shards,
			EvalEvery: w.evalEvery,
		},
		Runtime:     w.runtime,
		Concurrency: w.concurrency,
		BufferSize:  w.buffer,
		FlopRate:    w.flopRate,
	}
	if w.evalEvery == 0 {
		sp.EvalEvery = 1 << 20
	}
	var err error
	if sp.Transport, err = comm.ParseTransport(w.transport); err != nil {
		return sp, err
	}
	if w.latency != "" {
		if sp.Latency, err = core.ParseLatency(w.latency); err != nil {
			return sp, err
		}
	}
	if sp.Devices, err = core.ParseDeviceDist(w.devices); err != nil {
		return sp, err
	}
	if sp.Network, err = core.ParseNetDist(w.network); err != nil {
		return sp, err
	}
	if sp.Churn, err = core.ParseChurn(w.churn); err != nil {
		return sp, err
	}
	if sp.Faults, err = core.ParseFaults(w.faults); err != nil {
		return sp, err
	}
	if w.policy != "" {
		if sp.Policy, err = core.ParsePolicy(w.policy); err != nil {
			return sp, err
		}
	}
	return sp, nil
}
