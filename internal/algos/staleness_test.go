package algos

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestWithStaleness(t *testing.T) {
	base, err := New("fedprox", Params{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := WithStaleness(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != "fedprox" {
		t.Fatalf("wrapper changed name to %q", wrapped.Name())
	}
	sw, ok := wrapped.(core.StalenessWeighter)
	if !ok {
		t.Fatal("wrapper does not implement StalenessWeighter")
	}
	if sw.StalenessWeight(0) != 1 {
		t.Fatal("fresh updates must keep full weight")
	}
	if got := sw.StalenessWeight(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weight(3) = %v want 0.5", got)
	}
	if _, err := WithStaleness(base, -1); err == nil {
		t.Fatal("negative exponent accepted")
	}
	// Server-side methods would lose their optional interfaces behind the
	// wrapper; they must be rejected rather than silently broken.
	for _, name := range []string{"slowmo", "scaffold", "feddane", "mimelite", "feddyn", "fednova"} {
		a, err := New(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WithStaleness(a, 0.5); err == nil {
			t.Errorf("%s accepted despite server-side hooks", name)
		}
	}
}

// End-to-end: the wrapper's discount must drive the async runtime.
func TestWithStalenessAsyncRun(t *testing.T) {
	base, err := New("fedavg", Params{})
	if err != nil {
		t.Fatal(err)
	}
	algo, err := WithStaleness(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunSpec{Config: testConfig(t, algo), Runtime: core.RuntimeAsync}
	cfg.Rounds = 5
	cfg.Concurrency = 4
	cfg.BufferSize = 2
	cfg.Latency = core.UniformLatency{Min: 1, Max: 5}
	res, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != cfg.Rounds {
		t.Fatalf("rounds %d want %d", res.Rounds, cfg.Rounds)
	}
	if res.BestAccuracy <= 0 {
		t.Fatal("async run recorded no accuracy")
	}
}
