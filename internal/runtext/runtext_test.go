package runtext_test

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/runtext"
)

// fedtrip and fedtrip-tables register the same Selection, so -h shows one
// vocabulary: the same twelve names with the same usage text, and each
// command's defaults are whatever its Selection held.
func TestRegisterIsTheOneFlagSet(t *testing.T) {
	fedtrip, tables := runtext.Selection{Latency: "zero"}, runtext.Selection{}
	a, b := flag.NewFlagSet("fedtrip", flag.ContinueOnError), flag.NewFlagSet("fedtrip-tables", flag.ContinueOnError)
	fedtrip.Register(a)
	tables.Register(b)
	var names []string
	a.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if g := b.Lookup(f.Name); g == nil || g.Usage != f.Usage {
			t.Errorf("-%s: usage differs between the two commands", f.Name)
		}
	})
	want := "bandwidth-dist buffer concurrency device-dist dropout faults latency local-steps-adaptive policy runtime server-lr transport"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("registered flags %q, want %q", got, want)
	}
	if d := a.Lookup("latency").DefValue; d != "zero" {
		t.Errorf("fedtrip -latency default %q, want zero", d)
	}
	if d := b.Lookup("latency").DefValue; d != "" {
		t.Errorf("fedtrip-tables -latency default %q, want empty", d)
	}
	b.SetOutput(io.Discard)
	if err := b.Parse([]string{"-runtime", "async", "-policy", "fedbuff:2+clip:5", "-buffer", "3", "-local-steps-adaptive"}); err != nil {
		t.Fatal(err)
	}
	if tables.Runtime != core.RuntimeAsync || tables.Policy != "fedbuff:2+clip:5" || tables.Buffer != 3 || !tables.AdaptiveSteps {
		t.Fatalf("parsed flags did not land in the selection: %+v", tables)
	}
}

func TestOverlayNonZeroBeats(t *testing.T) {
	profile := runtext.Selection{Runtime: core.RuntimeAsync, Latency: "exp:2", Buffer: 4, Transport: "f32"}
	got := profile.Overlay(runtext.Selection{Latency: "const:1", Concurrency: 8, AdaptiveSteps: true})
	want := runtext.Selection{Runtime: core.RuntimeAsync, Latency: "const:1", Buffer: 4, Concurrency: 8, Transport: "f32", AdaptiveSteps: true}
	if got != want {
		t.Fatalf("overlay = %+v, want %+v", got, want)
	}
	if profile.Latency != "exp:2" {
		t.Fatal("Overlay mutated its receiver")
	}
}

// Every text field reaches its parser: a malformed value in any one of
// them is an error naming the family, and a Config that already carries a
// transport is refused instead of silently losing it.
func TestParseSurfacesEveryField(t *testing.T) {
	typ := reflect.TypeOf(runtext.Selection{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.String {
			continue
		}
		var sel runtext.Selection
		reflect.ValueOf(&sel).Elem().Field(i).SetString("warp:1")
		if _, err := sel.Parse(core.Config{}); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("Selection.%s = warp:1: err %v, want an unknown-name error", typ.Field(i).Name, err)
		}
	}
	if _, err := (runtext.Selection{}).Parse(core.Config{Transport: comm.NewF32Transport()}); err == nil {
		t.Error("a Config carrying a transport was accepted")
	}
	rs, err := runtext.Selection{Policy: "median", ServerLR: "const:0.5", Transport: "q4"}.Parse(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lr, ok := rs.Policy.(*core.ScheduledLR)
	if !ok || lr.String() != "median+lr:const:0.5" || rs.Transport.(*comm.CompressedTransport).String() != "q4" {
		t.Fatalf("assembled policy %v transport %v", rs.Policy, rs.Transport)
	}
}
