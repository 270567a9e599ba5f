package runtext_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/runtext"
)

// family is one spec grammar under test: a parser reduced to "typed value
// or error" and the specs that seed both the round-trip table and the
// family's fuzz target.
type family struct {
	name  string
	parse func(string) (any, error)
	// data marks families whose values are plain data: the reparsed value
	// must then be reflect.DeepEqual, not just print alike.
	data  bool
	specs []string
}

// typed turns a parser's (pointer-or-interface, error) into (any, error)
// with a true nil for "none", so a nil *ChurnModel does not hide inside a
// non-nil any.
func typed[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) {
		v, err := parse(s)
		if rv := reflect.ValueOf(v); err != nil || !rv.IsValid() || (rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface) && rv.IsNil() {
			return nil, err
		}
		return v, nil
	}
}

var families = []family{
	{"runtime", typed(core.ParseRuntime), true,
		[]string{"", "sync", "async", "barrier"}},
	{"latency", typed(core.ParseLatency), true,
		[]string{"zero", "const:2", "uniform:0.5,2", "exp:1.5", "lognormal:0,0.5", "lognormal:-1,0", "straggler:1,10,5"}},
	{"device", typed(core.ParseDeviceDist), true,
		[]string{"uniform:0.5,2", "lognormal:0,0.6", "tiered", "tiered:0.5,0.5,2,0.5", "uniform:1,1", "lognormal:0.25,0.00125"}},
	{"net", typed(core.ParseNetDist), true,
		[]string{"const:10,25", "const:10,25,30", "const:inf,inf,0", "uniform:5,50", "uniform:5,50,20", "lognormal:3,0.5", "lognormal:-1,0,40", "tiered", "tiered:10,40,20,1"}},
	{"churn", typed(core.ParseChurn), true,
		[]string{"markov:90,10", "markov:90,10+drop:60,0.3,30+drop:100,0.5,0", "drop:5,1,0", "drop:60,0.3,30"}},
	{"faults", typed(core.ParseFaults), true,
		[]string{"byz:0.2,signflip", "byz:0.3,scale:10", "byz:0.1,noise:0.5", "byz:0.05,nan", "byz:0.25,labelflip", "crash:0.1", "byz:0.2,signflip+crash:0.05", "crash:0"}}, // crash:0 is no faults: it parses to nil and prints as none
	{"transport", typed(comm.ParseTransport), false,
		[]string{"f32", "lossless", "q8", "q8+ef", "topk:0.01+ef", "randk:0.05"}},
	{"policy", typed(core.ParsePolicy), false,
		[]string{"fedavg", "fedbuff", "fedbuff:0.7", "fedasync", "fedasync:0.4", "fedasync:0.4,1", "importance:0.5,0.7", "median", "trimmedmean:0.25", "krum:0.2", "maxstale:4", "fedbuff:0.5+maxstale:8+clip:5", "trimmedmean:0.25+clip:5"}},
	{"server-lr", typed(core.ParseLRSchedule), false,
		[]string{"const:0.5", "invsqrt:1", "step:1,0.5,10"}},
	{"method", typed(algos.Parse), false,
		[]string{"fedtrip", "fedtrip:1", "fedtrip:0.4,1,0,1,1", "fedtrip:0.4,2,0,1,0", "fedavg", "fedprox:0.3", "slowmo:0.5,1", "moon:1,0.5",
			"feddyn:1", "feddyn", "scaffold", "feddane:0.1", "mimelite:0.9", "fedgkd:0.2,2", "fednova", "fedprox:0"}},
}

// render is a parsed value's canonical text: its String(), "none" for
// the nil every optional family parses "none" to.
func render(v any) string {
	if v == nil {
		return "none"
	}
	switch v := v.(type) {
	case fmt.Stringer:
		return v.String()
	case core.Algorithm:
		return v.Name() // a method without hyperparameters
	}
	return fmt.Sprint(v) // core.Runtime is a string
}

// roundTrip is the property: whatever parses renders to text that parses
// back to a value rendering (and, for plain data, comparing) the same.
func roundTrip(f family, text string) error {
	v, err := f.parse(text)
	if err != nil {
		return nil // rejected input has nothing to round-trip
	}
	canon := render(v)
	v2, err := f.parse(canon)
	if err != nil {
		return fmt.Errorf("%s %q renders as %q, which does not parse: %v", f.name, text, canon, err)
	}
	if again := render(v2); again != canon {
		return fmt.Errorf("%s %q renders as %q, which reparses to %q", f.name, text, canon, again)
	}
	if f.data && !reflect.DeepEqual(v, v2) {
		return fmt.Errorf("%s %q: %#v reparsed from %q as %#v", f.name, text, v, canon, v2)
	}
	return nil
}

// TestSpecRoundTrip: Parse(x.String()) == x over every family's table —
// the property the snapshot fingerprint stands on. (On the tree before
// the one grammar, 4 of the 13 policy specs held it: Policy.Name() dropped
// every argument.)
func TestSpecRoundTrip(t *testing.T) {
	for _, f := range families {
		for _, s := range f.specs {
			if _, err := f.parse(s); err != nil {
				t.Errorf("%s %q: %v", f.name, s, err)
			}
			if err := roundTrip(f, s); err != nil {
				t.Error(err)
			}
		}
	}
}

// fuzz seeds the family's table (plus any rejected spellings worth
// starting from) and checks that arbitrary text never panics and that
// whatever parses round-trips.
func fuzz(f *testing.F, name string, rejected ...string) {
	for _, fam := range families {
		if fam.name != name {
			continue
		}
		for _, s := range append(fam.specs, rejected...) {
			f.Add(s)
		}
		f.Fuzz(func(t *testing.T, text string) {
			if err := roundTrip(fam, text); err != nil {
				t.Error(err)
			}
		})
		return
	}
	f.Fatalf("no family %q", name)
}

// Non-finite fleet arguments, refused by every form: only a const or
// tiered bandwidth may be inf.
var (
	nonFiniteLatency = []string{"const:inf", "uniform:0,inf", "exp:inf", "lognormal:0,inf", "straggler:1,inf,3"}
	nonFiniteDevices = []string{"uniform:1,inf", "lognormal:inf,1", "lognormal:0,inf", "tiered:inf,1", "tiered:1,inf"}
	nonFiniteNet     = []string{"const:10,25,inf", "uniform:5,50,inf", "lognormal:3,inf", "lognormal:3,0.5,inf", "tiered:10,40,inf,1"}
)

func FuzzParseRuntime(f *testing.F)    { fuzz(f, "runtime") }
func FuzzParseLatency(f *testing.F)    { fuzz(f, "latency", nonFiniteLatency...) }
func FuzzParseDeviceDist(f *testing.F) { fuzz(f, "device", nonFiniteDevices...) }
func FuzzParseNetDist(f *testing.F)    { fuzz(f, "net", nonFiniteNet...) }
func FuzzParseChurn(f *testing.F)      { fuzz(f, "churn") }
func FuzzParseFaults(f *testing.F)     { fuzz(f, "faults") }
func FuzzParseTransport(f *testing.F)  { fuzz(f, "transport") }
func FuzzParsePolicy(f *testing.F) {
	fuzz(f, "policy", "fedavg+clip:1+clip:5", "fedbuff+maxstale:8+maxstale:2") // a policy has one of each guard
}
func FuzzParseLRSchedule(f *testing.F) { fuzz(f, "server-lr") }
func FuzzParseMethod(f *testing.F) {
	fuzz(f, "method", "fedtrip:NaN", "fedtrip:inf", "fedprox:-1", "moon:1,-inf", "feddyn:+Inf", "fedtrip:0.4,3", "fedtrip:0.4,1.5")
}

// canonicalText renders a validated RunSpec back into a Selection, field
// by field from the typed values' own String()s.
func canonicalText(rs core.RunSpec) runtext.Selection {
	s := runtext.Selection{
		Runtime: rs.Runtime, Latency: rs.Latency.String(), Devices: rs.Devices.String(), Bandwidth: rs.Network.String(),
		Concurrency: rs.Concurrency, Buffer: rs.BufferSize,
		AdaptiveSteps: rs.AdaptiveLocalSteps,
	}
	if rs.Churn != nil {
		s.Churn = rs.Churn.String()
	}
	if rs.Faults != nil {
		s.Faults = rs.Faults.String()
	}
	if rs.Transport != nil {
		s.Transport = render(rs.Transport)
	}
	pol := rs.Policy
	if pol.ServerLR.F != nil {
		s.ServerLR, pol.ServerLR = pol.ServerLR.String(), core.Rule{}
	}
	s.Policy = pol.String()
	return s
}

// TestSelectionRoundTripKeepsFingerprint: a RunSpec assembled from text,
// rendered back to canonical text and re-assembled is the same run — the
// second spec resumes the first one's snapshot, which Resume only allows
// on an identical fingerprint.
func TestSelectionRoundTripKeepsFingerprint(t *testing.T) {
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 240, Test: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	config := func() core.Config {
		algo, err := algos.Parse("fedtrip")
		if err != nil {
			t.Fatal(err)
		}
		return core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.25},
			Train: train, Test: test, Parts: parts,
			Rounds: 4, ClientsPerRound: 3, BatchSize: 20, LocalEpochs: 1,
			LR: 0.01, Momentum: 0.9, Algo: algo, Seed: 1,
		}
	}
	sels := []runtext.Selection{
		{},
		{Runtime: core.RuntimeBarrier, Latency: "straggler:1,10,3", Policy: "fedavg+clip:5", Transport: "q8+ef"},
		{Runtime: core.RuntimeAsync, Latency: "exp:2", Policy: "fedasync:0.4,1", ServerLR: "step:1,0.5,2", Concurrency: 4, Buffer: 2},
		{
			Runtime: core.RuntimeAsync, Policy: "trimmedmean:0.25+maxstale:8", Concurrency: 4, Buffer: 2,
			Devices: "tiered", AdaptiveSteps: true, Churn: "markov:90,10+drop:60,0.3,30",
			Transport: "topk:0.05+ef", Bandwidth: "const:10,25", Faults: "byz:0.2,scale:10+crash:0.05",
		},
		{Runtime: core.RuntimeAsync, ServerLR: "invsqrt:0.5", Latency: "lognormal:0,0.5", Bandwidth: "tiered"},
	}
	for i, sel := range sels {
		first, err := sel.RunSpec(config())
		if err != nil {
			t.Fatalf("selection %d: %v", i, err)
		}
		rs, err := core.NewRunState(first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := rs.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		rs.Close()
		canon := canonicalText(first)
		second, err := canon.RunSpec(config())
		if err != nil {
			t.Fatalf("selection %d: canonical text %+v does not assemble: %v", i, canon, err)
		}
		rs2, err := core.Resume(bytes.NewReader(snap.Bytes()), core.ResumeSpec{Spec: second})
		if err != nil {
			t.Fatalf("selection %d: re-assembled from %+v is a different run: %v", i, canon, err)
		}
		rs2.Close()
	}
}
