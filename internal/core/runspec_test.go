package core

import "testing"

// A FedAsync single-arrival spec runs, learns, and records exactly one
// merged update per aggregation.
func TestStartFedAsyncSingleArrival(t *testing.T) {
	merged := []int{}
	cfg := testConfig(t, NewFedTrip(0.4))
	cfg.Rounds = 12
	cfg.OnUpdates = func(round int, global []float64, updates []Update) {
		merged = append(merged, len(updates))
	}
	res, err := Start(RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 3,
		Latency:     StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 3},
		Policy:      &FedAsyncPolicy{Alpha: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 12 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if len(merged) != 12 {
		t.Fatalf("aggregations %d", len(merged))
	}
	for i, n := range merged {
		if n != 1 {
			t.Fatalf("aggregation %d merged %d updates, want 1", i+1, n)
		}
	}
	if res.BestAccuracy < 0.3 {
		t.Fatalf("fedasync run failed to learn: %v", res.BestAccuracy)
	}
}

func TestRunSpecValidateDefaults(t *testing.T) {
	sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4))}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Runtime != RuntimeSync {
		t.Fatalf("default runtime %q", sp.Runtime)
	}
	if _, ok := sp.Policy.(*FedAvgPolicy); !ok {
		t.Fatalf("sync default policy %T", sp.Policy)
	}

	sp = RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Concurrency != sp.ClientsPerRound || sp.BufferSize != sp.ClientsPerRound {
		t.Fatalf("async defaults %d/%d want %d", sp.Concurrency, sp.BufferSize, sp.ClientsPerRound)
	}
	if _, ok := sp.Latency.(ZeroLatency); !ok {
		t.Fatalf("default latency %T", sp.Latency)
	}
	buff, ok := sp.Policy.(*FedBuffPolicy)
	if !ok {
		t.Fatalf("async default policy %T", sp.Policy)
	}
	if buff.K != sp.ClientsPerRound {
		t.Fatalf("policy K %d, want BufferSize default %d", buff.K, sp.ClientsPerRound)
	}
	if buff.Discount.F == nil || buff.Discount.F(0) != 1 || buff.String() != "fedbuff:0.5" {
		t.Fatal("default discount not resolved")
	}
	// Validate is idempotent.
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}

	// A schedule-only policy wraps the runtime default.
	sp = RunSpec{
		Config:  testConfig(t, NewFedTrip(0.4)),
		Runtime: RuntimeAsync,
		Policy:  &ScheduledLR{Schedule: Rule{F: func(int) float64 { return 0.5 }}},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Policy.Name() != "fedbuff+lr" {
		t.Fatalf("schedule-only policy resolved to %q", sp.Policy.Name())
	}
}

// Validate resolves defaults on a private copy of built-in policies: the
// caller's instance is never mutated, so one policy value can be reused
// across specs with different knobs.
func TestValidateDoesNotMutateCallerPolicy(t *testing.T) {
	shared := &FedBuffPolicy{}
	sp1 := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync, BufferSize: 2, Policy: shared}
	if err := sp1.Validate(); err != nil {
		t.Fatal(err)
	}
	if shared.K != 0 || shared.Discount.F != nil {
		t.Fatalf("caller's policy mutated: K=%d discountSet=%v", shared.K, shared.Discount.F != nil)
	}
	if resolved := sp1.Policy.(*FedBuffPolicy); resolved.K != 2 {
		t.Fatalf("resolved clone K=%d, want 2", resolved.K)
	}
	// Reuse with a different buffer size resolves independently.
	sp2 := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync, BufferSize: 5, Policy: shared}
	if err := sp2.Validate(); err != nil {
		t.Fatal(err)
	}
	if resolved := sp2.Policy.(*FedBuffPolicy); resolved.K != 5 {
		t.Fatalf("second resolution K=%d, want 5 (stale state leaked)", resolved.K)
	}
	// A schedule wrapper's inner policy is cloned too.
	sched := &ScheduledLR{AggregationPolicy: shared, Schedule: Rule{F: func(int) float64 { return 1 }}}
	sp3 := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync, BufferSize: 3, Policy: sched}
	if err := sp3.Validate(); err != nil {
		t.Fatal(err)
	}
	if shared.K != 0 || sched.AggregationPolicy.(*FedBuffPolicy).K != 0 {
		t.Fatal("schedule wrapper resolution mutated the caller's instances")
	}
}

func TestRunSpecValidateRejects(t *testing.T) {
	check := func(mutate func(*RunSpec), what string) {
		sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4))}
		mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	check(func(sp *RunSpec) { sp.Runtime = "warp" }, "unknown runtime")
	check(func(sp *RunSpec) { sp.Latency = ConstantLatency{D: 2} }, "sync with latency model")
	check(func(sp *RunSpec) { sp.Runtime = RuntimeAsync; sp.Concurrency = 99 }, "concurrency over population")
	check(func(sp *RunSpec) { sp.Runtime = RuntimeAsync; sp.Concurrency = -1 }, "negative concurrency")
	check(func(sp *RunSpec) { sp.Runtime = RuntimeAsync; sp.BufferSize = -1 }, "negative buffer")
	check(func(sp *RunSpec) { sp.Runtime = RuntimeAsync; sp.Algo = aggAlgo{} }, "aggregator in buffered mode")
	check(func(sp *RunSpec) { sp.Runtime = RuntimeAsync; sp.Algo = preAlgo{} }, "pre-rounder in buffered mode")
	check(func(sp *RunSpec) { sp.Rounds = 0 }, "bad base config")
	check(func(sp *RunSpec) { sp.Policy = &ScheduledLR{} }, "schedule policy without schedule")
	// Explicit in-range async knobs are kept as given.
	sp := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync, Concurrency: 2, BufferSize: 3}
	if err := sp.Validate(); err != nil || sp.Concurrency != 2 || sp.BufferSize != 3 {
		t.Fatalf("explicit async knobs: %d/%d, err %v", sp.Concurrency, sp.BufferSize, err)
	}
	// ZeroLatency on sync is tolerated (it is the no-op model).
	sp = RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Latency: ZeroLatency{}}
	if err := sp.Validate(); err != nil {
		t.Fatalf("sync with ZeroLatency rejected: %v", err)
	}
	// Barrier accepts server-hook algorithms.
	sp = RunSpec{Config: testConfig(t, aggAlgo{}), Runtime: RuntimeBarrier}
	if err := sp.Validate(); err != nil {
		t.Fatalf("barrier rejected aggregator algo: %v", err)
	}
}

// An Algorithm's StalenessWeighter force-overrides the discount of any
// discount-based policy.
func TestStalenessWeighterOverridesPolicyDiscount(t *testing.T) {
	algo := &stalenessAlgo{calls: map[int]int{}}
	cfg := testConfig(t, algo)
	cfg.Rounds = 8
	res, err := Start(RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     UniformLatency{Min: 1, Max: 9},
		Policy:      &FedBuffPolicy{Discount: Rule{F: func(int) float64 { t.Fatal("algorithm override must win"); return 0 }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 8 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	if len(algo.calls) == 0 {
		t.Fatal("StalenessWeight never consulted")
	}
}

func TestParseRuntime(t *testing.T) {
	for name, want := range map[string]Runtime{
		"":        RuntimeSync,
		"sync":    RuntimeSync,
		"async":   RuntimeAsync,
		"barrier": RuntimeBarrier,
	} {
		got, err := ParseRuntime(name)
		if err != nil || got != want {
			t.Fatalf("ParseRuntime(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := ParseRuntime("warp"); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}
