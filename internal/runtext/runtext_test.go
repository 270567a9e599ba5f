package runtext_test

import (
	"flag"
	"fmt"
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
	// The task half has one user and one set of defaults — the paper's
	// recipe. A renamed flag or a moved default fails here.
	var task runtext.Task
	c := flag.NewFlagSet("fedtrip", flag.ContinueOnError)
	task.Register(c)
	defaults := map[string]string{
		"algo": "fedtrip", "dataset": "mnist", "model": "cnn", "scheme": "dir", "alpha": "0.5", "clusters": "5",
		"clients": "10", "k": "4", "samples": "120", "test": "400", "rounds": "30", "batch": "10", "epochs": "1",
		"lr": "0.01", "momentum": "0.9", "mu": "0", "scale": "0.5", "target": "0", "seed": "1", "clip": "0", "shards": "0",
	}
	c.VisitAll(func(f *flag.Flag) {
		if want, ok := defaults[f.Name]; !ok || f.DefValue != want {
			t.Errorf("task flag -%s default %q, want %q (registered: %v)", f.Name, f.DefValue, want, ok)
		}
		delete(defaults, f.Name)
	})
	if len(defaults) != 0 {
		t.Errorf("task flags not registered: %v", defaults)
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
	if rs.Policy.String() != "median+lr:const:0.5" || rs.Transport.(*comm.CompressedTransport).String() != "q4" {
		t.Fatalf("assembled policy %v transport %v", rs.Policy, rs.Transport)
	}
}

// FromLine is the one way a fedtrip command line becomes a run: the text
// reaches every layer, and what it rejects it rejects by name.
func TestFromLine(t *testing.T) {
	const small = "-model mlp -clients 6 -k 3 -samples 20 -test 50 -rounds 2 "
	rs, err := runtext.FromLine(small + "-algo fedprox -mu 0.3 -scheme orthogonal -clusters 2 -seed 9 -clip 5 -runtime async -policy fedbuff:1 -buffer 2 -transport f32")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Runtime != core.RuntimeAsync || rs.Algo.Name() != "fedprox" || len(rs.Parts) != 6 || rs.ClientsPerRound != 3 ||
		rs.Seed != 9 || rs.ClipNorm != 5 || rs.BufferSize != 2 || rs.Concurrency != 3 || fmt.Sprint(rs.Policy) != "fedbuff:1" ||
		rs.Transport.(*comm.F32Transport) == nil || fmt.Sprint(rs.Latency) != "zero" {
		t.Fatalf("assembled run %+v", rs)
	}
	for _, tc := range []struct{ line, want string }{
		{"-scheme ring", `unknown scheme "ring"`},
		{"-dataset imagenet", "imagenet"},
		{"-model resnet", `unknown model "resnet"`},
		{"-algo fedsgd", `unknown method "fedsgd"`},
		{"-k 7", "clients per round 7 outside [1,6]"},
		{"-policy fedbuff:-1", "a discount exponent >= 0"},
		{"-policy fedavg+clip:1+clip:5", "duplicate clip"},
		{"-runtime async -policy fedbuff+maxstale:8+maxstale:2", "duplicate maxstale"},
		{"-flop-rate 2", "FlopRate"},
		{"-quiet", "flag provided but not defined"},
		{"stray", `unexpected argument "stray"`},
	} {
		if _, err := runtext.FromLine(small + tc.line); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.line, err, tc.want)
		}
	}
	// A malformed task field and a malformed selection field come back in
	// one error.
	_, err = runtext.FromLine(small + "-scheme ring -algo fedsgd -latency warp:1 -policy nope")
	for _, want := range []string{"ring", "fedsgd", "warp", "nope"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %v does not name %q", err, want)
		}
	}
}
