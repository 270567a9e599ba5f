package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Property: aggregation is invariant to the order of client updates.
func TestAggregatePermutationInvariant(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Global())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		updates := make([]Update, k)
		for i := range updates {
			p := make([]float64, n)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			updates[i] = Update{ClientID: i, Params: p, NumSamples: 1 + rng.Intn(100)}
		}
		s.aggregate(1, updates)
		first := append([]float64(nil), s.Global()...)
		shuffled := append([]Update(nil), updates...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s.aggregate(1, shuffled)
		return tensor.MaxAbsDiff(first, s.Global()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregating identical updates returns exactly that update
// (idempotence of the weighted mean).
func TestAggregateIdempotent(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Global())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, n)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		updates := []Update{
			{ClientID: 0, Params: p, NumSamples: 10},
			{ClientID: 1, Params: append([]float64(nil), p...), NumSamples: 77},
		}
		s.aggregate(1, updates)
		return tensor.MaxAbsDiff(p, s.Global()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: FedTrip's gradient transform is linear in mu.
func TestFedTripLinearInMu(t *testing.T) {
	cfg := testConfig(t, NewFedTrip(0.4))
	c := firstClient(t, cfg)
	n := c.NumParams()
	rng := rand.New(rand.NewSource(11))
	global := make([]float64, n)
	hist := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		global[i], hist[i], w[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	copy(c.State(1), hist)
	c.LastRound = 1
	apply := func(mu float64) []float64 {
		f := NewFedTrip(mu)
		c.SetRoundGlobal(global)
		g := make([]float64, n)
		f.TransformGrad(c, 3, w, g)
		return g
	}
	g1 := apply(0.3)
	g2 := apply(0.6)
	for i := range g1 {
		if diff := g2[i] - 2*g1[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("not linear in mu at %d: %v vs %v", i, g2[i], 2*g1[i])
		}
	}
}
