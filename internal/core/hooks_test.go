package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestLogfReceivesRounds(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 3
	var mu sync.Mutex
	var lines []string
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	if _, err := Start(RunSpec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("Logf called %d times, want 3", len(lines))
	}
	if !strings.Contains(lines[0], "round") {
		t.Fatalf("log line %q", lines[0])
	}
}

func TestOnRoundHookSeesLiveServer(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 4
	var rounds []int
	var globals [][]float64
	cfg.OnRound = func(round int, s *Server) {
		rounds = append(rounds, round)
		globals = append(globals, append([]float64(nil), s.Global()...))
	}
	if _, err := Start(RunSpec{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("OnRound called %d times", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("rounds sequence %v", rounds)
		}
	}
	// The global model must evolve between rounds.
	if tensor.MaxAbsDiff(globals[0], globals[3]) == 0 {
		t.Fatal("global model did not change across rounds")
	}
}

// Parallel client training must not introduce nondeterminism even for
// algorithms with per-client state and scratch models (MOON-style
// FeatureGradder); this exercises the concurrency contract.
type featAlgo struct {
	Base
}

func (featAlgo) Name() string { return "featalgo" }
func (featAlgo) FeatureGrad(c *Client, x, labels, features, out interface{ Numel() int }) bool {
	return false
}

func TestHistAcrossRoundsFeedsXi(t *testing.T) {
	f := NewFedTrip(0.4)
	cfg := testConfig(t, f)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clients()[0]
	u := c.LocalTrain(2, s.Global())
	// w_hist must be the round-2 upload, not the new global.
	if c.LastRound != 2 {
		t.Fatalf("LastRound %d", c.LastRound)
	}
	if tensor.MaxAbsDiff(c.State(1), u.Params) != 0 {
		t.Fatal("w_hist is not the round-2 upload")
	}
	// Participating again at round 5: gap 3 -> xi = 1/3. At w = global the
	// pull term vanishes and g = mu * xi * (hist - w).
	c.SetRoundGlobal(s.Global())
	g := make([]float64, c.NumParams())
	f.TransformGrad(c, 5, s.Global(), g)
	for i := range g {
		if want := f.Mu * (1.0 / 3 * (c.State(1)[i] - s.Global()[i])); g[i] != want {
			t.Fatalf("g[%d] = %v want %v (xi = 1/3)", i, g[i], want)
		}
	}
}

// xi is a function of the participation gap alone: TransformGrad on a
// client whose LastRound is set applies 1/gap with no BeginRound before
// it.
func TestFedTripXiNeedsNoBeginRound(t *testing.T) {
	f := NewFedTrip(0.5)
	c := firstClient(t, testConfig(t, f))
	n := c.NumParams()
	global := make([]float64, n)
	hist := c.State(1)
	for i := range hist {
		hist[i] = 1
	}
	c.LastRound = 2
	c.SetRoundGlobal(global)
	g := make([]float64, n)
	f.TransformGrad(c, 6, make([]float64, n), g)
	// w = global = 0, gap 4: g = mu * xi * (hist - w) = 0.5 * 1/4.
	for i := range g {
		if g[i] != 0.125 {
			t.Fatalf("g[%d] = %v want 0.125 (xi = 1/4)", i, g[i])
		}
	}
}

// The global-pull term must vanish when GlobalWeight is zeroed (history
// ablation) while the repulsion term still applies.
func TestFedTripAblationWeights(t *testing.T) {
	f := NewFedTrip(0.5)
	f.GlobalWeight = 0
	cfg := testConfig(t, f)
	c := firstClient(t, cfg)
	n := c.NumParams()
	global := make([]float64, n)
	for i := range global {
		global[i] = 7 // would dominate g if the pull term leaked
	}
	hist := make([]float64, n)
	for i := range hist {
		hist[i] = 1
	}
	copy(c.State(1), hist)
	c.LastRound = 1
	c.SetRoundGlobal(global)
	w := make([]float64, n) // zeros
	g := make([]float64, n)
	f.TransformGrad(c, 2, w, g)
	// xi = 1/(2-1) = 1; g = mu * xi * (hist - w) = 0.5 * 1 = 0.5.
	for i := range g {
		if g[i] != 0.5 {
			t.Fatalf("g[%d] = %v want 0.5 (pull term leaked?)", i, g[i])
		}
	}
}

// HistWeight=0 must reduce FedTrip to a pure proximal method even with a
// historical model present.
func TestFedTripHistWeightZero(t *testing.T) {
	f := NewFedTrip(0.5)
	f.HistWeight = 0
	cfg := testConfig(t, f)
	c := firstClient(t, cfg)
	n := c.NumParams()
	global := make([]float64, n)
	for i := range global {
		global[i] = 2
	}
	c.State(1) // zeros, would repel if active
	c.LastRound = 1
	c.SetRoundGlobal(global)
	w := make([]float64, n)
	g := make([]float64, n)
	f.TransformGrad(c, 2, w, g)
	for i := range g {
		if g[i] != -1.0 { // 0.5 * (0 - 2)
			t.Fatalf("g[%d] = %v want -1", i, g[i])
		}
	}
}

// FedTrip under full participation (K = N) has gap always 1, so xi = 1
// for every round after the first — the regime where the triplet term is
// strongest.
func TestXiFullParticipation(t *testing.T) {
	f := NewFedTrip(0.4)
	for round := 2; round < 10; round++ {
		if xi := f.Xi(round, round-1); xi != 1 {
			t.Fatalf("round %d xi = %v", round, xi)
		}
	}
}
