package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// meteredAlgo wraps a method and records what each local round meters on
// its client's counter, from before BeginRound to after EndRound: the
// FLOPs its job prices a device arrival with. A replay (lazyrows.go)
// meters nothing and runs with no counter; it is skipped.
type meteredAlgo struct {
	core.Algorithm
	mu    sync.Mutex
	start map[int]int64
	flops map[[2]int]int64 // (dispatch round, client) -> metered FLOPs
}

func (m *meteredAlgo) BeginRound(c *core.Client, round int, global []float64) {
	if c.Counter != nil {
		m.mu.Lock()
		m.start[c.ID] = c.Counter.Total()
		m.mu.Unlock()
	}
	m.Algorithm.BeginRound(c, round, global)
}

func (m *meteredAlgo) EndRound(c *core.Client, round int) {
	m.Algorithm.EndRound(c, round)
	if c.Counter != nil {
		m.mu.Lock()
		m.flops[[2]int{round, c.ID}] = c.Counter.Total() - m.start[c.ID]
		m.mu.Unlock()
	}
}

// meteredFeatures is meteredAlgo for a method with a feature-gradient
// term (MOON), which it forwards.
type meteredFeatures struct {
	*meteredAlgo
	fg core.FeatureGradder
}

func (m meteredFeatures) FeatureGrad(c *core.Client, x *tensor.Tensor, labels []int, features, out *tensor.Tensor) bool {
	return m.fg.FeatureGrad(c, x, labels, features, out)
}

// jobFlopsFleet is a device-priced async fleet of eight clients holding
// 3, 5, …, 17 samples in batches of four over two local epochs, so the
// last batch of an epoch is 1, 2, 3 or 4 samples, under adaptive step
// budgets on a tiered fleet: the step counts differ from job to job, and
// a budget can end a round inside its second epoch.
func jobFlopsFleet(t *testing.T, algo core.Algorithm) core.RunSpec {
	t.Helper()
	parts := make([][]int, 8)
	n := 0
	for i := range parts {
		for range 3 + 2*i {
			parts[i] = append(parts[i], n)
			n++
		}
	}
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: n, Test: 50, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
			Train: train, Test: test, Parts: parts,
			Rounds: 8, ClientsPerRound: 2, EvalEvery: 100,
			BatchSize: 4, LocalEpochs: 2,
			LR: 0.01, Momentum: 0.9,
			Algo: algo, Seed: 9, Shards: 2,
		},
		Runtime:            core.RuntimeAsync,
		Concurrency:        4,
		BufferSize:         2,
		Devices:            mustFleet(core.ParseDeviceDist("tiered")),
		FlopRate:           1e6,
		AdaptiveLocalSteps: true,
	}
}

// TestJobFlopsPinned pins the FLOPs every merged job of a device-priced
// async fleet metered, in merge order, for four methods: FedAvg's model
// passes alone; FedProx's 2|w| a step on top; FedTrip's 2|w| a step at a
// client's first participation and 4|w| after it; and MOON's two extra
// forward passes a batch. |w| is 19,885, and a quarter-width MLP's
// forward pass costs 39,760 FLOPs a sample. These are the FLOPs each
// job's arrival is priced with, so a table that holds is a run whose
// clock did not move.
func TestJobFlopsPinned(t *testing.T) {
	want := map[string][]int64{
		"fedavg":  {1192800, 715680, 477120, 2147040, 715680, 2624160, 2147040, 715680, 477120, 4055520, 1192800, 3578400, 477120, 715680, 1192800, 2624160},
		"fedprox": {1351880, 795220, 516890, 2385660, 795220, 2862780, 2385660, 795220, 516890, 4453220, 1351880, 3896560, 516890, 795220, 1351880, 2862780},
		"fedtrip": {1351880, 795220, 516890, 2385660, 874760, 2862780, 2624280, 874760, 4453220, 556660, 1510960, 3896560, 556660, 874760, 1510960, 3101400},
		"moon":    {1990000, 1194000, 796000, 3582000, 1194000, 4378000, 3582000, 1194000, 796000, 6766000, 1990000, 5970000, 796000, 1194000, 1990000, 4378000},
	}
	for _, name := range []string{"fedavg", "fedprox", "fedtrip", "moon"} {
		t.Run(name, func(t *testing.T) {
			inner, err := algos.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			m := &meteredAlgo{Algorithm: inner, start: map[int]int64{}, flops: map[[2]int]int64{}}
			var algo core.Algorithm = m
			if fg, ok := inner.(core.FeatureGradder); ok {
				algo = meteredFeatures{m, fg}
			}
			sp := jobFlopsFleet(t, algo)
			var merged [][2]int
			sp.OnUpdates = func(round int, _ []float64, updates []core.Update) {
				for _, u := range updates {
					merged = append(merged, [2]int{round - u.Staleness, u.ClientID})
				}
			}
			if _, err := core.Start(sp); err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(merged))
			for i, k := range merged {
				fl, ok := m.flops[k]
				if !ok {
					t.Fatalf("merged job (round %d, client %d) metered nothing", k[0], k[1])
				}
				got[i] = fl
			}
			if fmt.Sprint(got) != fmt.Sprint(want[name]) {
				t.Errorf("metered FLOPs of the merged jobs, in merge order:\n%#v\npinned\n%#v", got, want[name])
			}
		})
	}
}
