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
		Policy:      mustPolicy(t, "fedasync:0.6"),
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
	if sp.Policy.Kind != PolicyFedAvg || sp.Policy.String() != "fedavg" {
		t.Fatalf("sync default policy %q", sp.Policy)
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
	buff := sp.Policy
	if buff.Kind != PolicyFedBuff {
		t.Fatalf("async default policy %q", buff)
	}
	if !buff.ReadyToMerge(sp.ClientsPerRound) || buff.ReadyToMerge(sp.ClientsPerRound-1) {
		t.Fatalf("policy does not merge at the BufferSize default %d", sp.ClientsPerRound)
	}
	if buff.Discount.F == nil || buff.Discount.F(0) != 1 || buff.String() != "fedbuff:0.5" {
		t.Fatal("default discount not resolved")
	}
	// Validate is idempotent.
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}

	// A schedule-only policy rides on the runtime default.
	sp = RunSpec{
		Config:  testConfig(t, NewFedTrip(0.4)),
		Runtime: RuntimeAsync,
		Policy:  Policy{ServerLR: Rule{F: func(int) float64 { return 0.5 }}},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Policy.String() != "fedbuff:0.5+lr:custom" {
		t.Fatalf("schedule-only policy resolved to %q", sp.Policy)
	}
}

// A RunSpec is a value and so is its policy: validating a copy resolves
// the copy, and the caller's spec can be reused under other knobs.
func TestValidateDoesNotMutateCallerPolicy(t *testing.T) {
	caller := RunSpec{Config: testConfig(t, NewFedTrip(0.4)), Runtime: RuntimeAsync, BufferSize: 2, Policy: mustPolicy(t, "fedbuff")}
	cp := caller
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if caller.Policy.String() != "fedbuff" || cp.Policy.String() != "fedbuff:0.5" {
		t.Fatalf("caller's policy %q (copy resolved to %q): validating a copy must leave it unresolved", caller.Policy, cp.Policy)
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
	check(func(sp *RunSpec) { sp.Policy = Policy{Kind: "warp"} }, "unknown policy kind")
	check(func(sp *RunSpec) { sp.Policy = Policy{Kind: PolicyTrimmedMean, Arg: 0.5} }, "trim fraction out of range")
	check(func(sp *RunSpec) { sp.Policy = Policy{Kind: PolicyFedAsync, Arg: 1.5} }, "mixing rate out of range")
	check(func(sp *RunSpec) { sp.Policy = Policy{Kind: PolicyMedian, Arg: 3} }, "argument on a kind that takes none")
	check(func(sp *RunSpec) { sp.Policy = Policy{Discount: PolyDiscount(1)} }, "discount on fedavg (the sync default)")
	check(func(sp *RunSpec) { sp.Policy = Policy{Clip: -1} }, "negative clip bound")
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
