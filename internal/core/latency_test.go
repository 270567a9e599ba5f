package core

import (
	"math"
	"repro/internal/prng"
	"testing"
)

// Every spec form must parse, round-trip through String, and sample
// nonnegative durations.
func TestParseLatencyForms(t *testing.T) {
	good := []struct {
		spec, str string
	}{
		{"zero", "zero"},
		{"", "zero"}, // empty spec is the zero model
		{"const:2", "const:2"},
		{"const:0", "const:0"},
		{"uniform:0.5,2", "uniform:0.5,2"},
		{"uniform:0,0", "uniform:0,0"},
		{"exp:1.5", "exp:1.5"},
		{"lognormal:0,0.5", "lognormal:0,0.5"},
		{"lognormal:-1,0", "lognormal:-1,0"}, // negative mu is fine: exp(mu) > 0
		{"straggler:1,10,5", "straggler:1,10,5"},
		{"straggler:2,2,1", "straggler:2,2,1"}, // slow == fast degenerates cleanly
		{"const: 2", "const:2"},                // whitespace around args is trimmed
	}
	rng := prng.New(1)
	for _, g := range good {
		m, err := ParseLatency(g.spec)
		if err != nil {
			t.Fatalf("%q: %v", g.spec, err)
		}
		if m.String() != g.str {
			t.Fatalf("%q round-tripped to %s", g.spec, m.String())
		}
		for i := 0; i < 100; i++ {
			if d := m.duration(i, rng); d < 0 {
				t.Fatalf("%q sampled negative latency %v", g.spec, d)
			}
		}
	}
}

// Malformed specs: unknown names, wrong arity, non-numeric args, and
// out-of-domain parameters must all be rejected with an error.
func TestParseLatencyMalformed(t *testing.T) {
	bad := append([]string{
		"warp",              // unknown model
		"zero:1",            // zero takes no args
		"const",             // missing arg
		"const:",            // empty arg list
		"const:x",           // non-numeric
		"const:1,2",         // too many args
		"const:-1",          // negative duration
		"uniform:1",         // missing max
		"uniform:2,1",       // max < min
		"uniform:-1,1",      // negative min
		"exp:0",             // zero mean
		"exp:-2",            // negative mean
		"exp:1,2",           // too many args
		"lognormal:0",       // missing sigma
		"lognormal:0,-1",    // negative sigma
		"straggler:1,10",    // missing every
		"straggler:1,0.5,3", // slow < fast
		"straggler:0,2,3",   // zero fast
		"straggler:1,2,0",   // every < 1
	}, nonFinite["latency"]...)
	for _, spec := range bad {
		if _, err := ParseLatency(spec); err == nil {
			t.Fatalf("%q accepted", spec)
		}
	}
}

// Parsed models must carry their parameters: spot-check each form's
// sampling behaviour, not just its name.
func TestParseLatencySampling(t *testing.T) {
	rng := prng.New(2)
	sample := func(spec string) FleetDist {
		t.Helper()
		m, err := ParseLatency(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if d := sample("zero").duration(3, rng); d != 0 {
		t.Fatalf("zero sampled %v", d)
	}
	if d := sample("const:2.5").duration(3, rng); d != 2.5 {
		t.Fatalf("const:2.5 sampled %v", d)
	}
	u := sample("uniform:0.5,2")
	for i := 0; i < 200; i++ {
		if d := u.duration(i, rng); d < 0.5 || d > 2 {
			t.Fatalf("uniform:0.5,2 sampled %v", d)
		}
	}
	// Exponential: the empirical mean over many draws approaches the
	// configured mean.
	e := sample("exp:1.5")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.duration(i, rng)
	}
	if mean := sum / n; math.Abs(mean-1.5) > 0.1 {
		t.Fatalf("exp:1.5 empirical mean %v", mean)
	}
	// Lognormal: strictly positive.
	l := sample("lognormal:0,0.5")
	for i := 0; i < 200; i++ {
		if d := l.duration(i, rng); d <= 0 {
			t.Fatalf("lognormal sampled %v", d)
		}
	}
	// Straggler: every 5th client is slow (10 +- 10%), the rest fast
	// (1 +- 10%).
	s := sample("straggler:1,10,5")
	for i := 0; i < 100; i++ {
		d, id := s.duration(i%10, rng), i%10
		if id%5 == 0 && (d < 9 || d > 11) {
			t.Fatalf("straggler slow client %d sampled %v", id, d)
		}
		if id%5 != 0 && (d < 0.9 || d > 1.1) {
			t.Fatalf("straggler fast client %d sampled %v", id, d)
		}
	}
}
