package core_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// poisonLast is FedAvg whose fourth client to finish training in round
// 1 diverges: its first parameter goes NaN after its last step. It keeps
// the trained parameters and sample counts of round 1's other clients.
type poisonLast struct {
	core.Base
	mu      sync.Mutex
	calls   int
	honest  [][]float64
	samples []int
}

func (p *poisonLast) Name() string { return "fedavg" }

func (p *poisonLast) EndRound(c *core.Client, round int) {
	if round != 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	params := c.Model().Params()
	if p.calls == 4 {
		params[0] = math.NaN()
		return
	}
	p.honest = append(p.honest, slices.Clone(params))
	p.samples = append(p.samples, c.NumSamples())
}

// A lock-step round whose last upload turns out non-finite after the
// others were folded into its mean re-sums the weights without it and
// rescales what it folded: the global lands on the weighted mean of the
// three honest uploads within rounding, and so does the round merged at
// its end (an OnUpdates hook). One shard trains the round's four clients
// in dispatch order, so the poisoned one arrives last.
func TestLateRejectionRescalesTheMean(t *testing.T) {
	for _, hook := range []bool{false, true} {
		algo := &poisonLast{}
		sp := uploadRun(t, "")
		sp.Rounds, sp.Shards, sp.EvalEvery = 1, 1, 1
		sp.Algo = algo
		if hook {
			sp.OnUpdates = func(int, []float64, []core.Update) {}
		}
		var global []float64
		sp.OnRound = func(_ int, s *core.Server) { global = slices.Clone(s.Global()) }
		res, err := core.Start(sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.RejectedUpdates != 1 || len(algo.honest) != 3 {
			t.Fatalf("hook %v: %d rejected, %d honest uploads; want 1 and 3", hook, res.RejectedUpdates, len(algo.honest))
		}
		var total float64
		for _, n := range algo.samples {
			total += float64(n)
		}
		for j := range global {
			var want float64
			for i, x := range algo.honest {
				want += float64(algo.samples[i]) / total * x[j]
			}
			if d := math.Abs(global[j] - want); d > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("hook %v: entry %d is %v, the honest uploads' weighted mean %v", hook, j, global[j], want)
			}
		}
	}
}
