// Command fedtrip-tables regenerates the paper's tables and figures.
//
//	fedtrip-tables                       # run everything (fast profile)
//	fedtrip-tables -exp table4,table5    # selected experiments
//	fedtrip-tables -profile paper        # paper-scale settings (slow)
//	fedtrip-tables -list                 # list experiment ids
//
// Experiments are runtime-agnostic: the runtime selection — -runtime,
// -latency, -policy, -server-lr, -concurrency, -buffer, -device-dist,
// -dropout, -local-steps-adaptive, -transport, -bandwidth-dist, -faults —
// is the same flag set cmd/fedtrip takes (internal/runtext registers it
// for both; the values are in the internal/spec grammar, see README "One
// run API" or -h) and is laid over the profile every case starts from.
// Methods with server-side hooks fall back from async to the barrier
// runtime. Four experiments set parts of the selection themselves to
// compare side by side: tta (policies under a straggler latency model),
// hetero (device fleets and churn), comm-tta (transports on a
// bandwidth-tiered fleet), robust (policies across Byzantine fractions):
//
//	fedtrip-tables -exp tta
//	fedtrip-tables -exp table4 -runtime async -policy fedasync -latency straggler:1,10,3
//	fedtrip-tables -exp table4 -runtime async -device-dist tiered -local-steps-adaptive
//	fedtrip-tables -exp table4 -runtime async -bandwidth-dist tiered -transport q8+ef
//	fedtrip-tables -exp table4 -runtime async -faults byz:0.2,signflip -policy trimmedmean:0.25
//
// Output is plain-text tables on stdout (or -o file); progress lines go to
// stderr. -cpuprofile and -memprofile write runtime/pprof profiles of the
// whole batch (internal/obs, shared with cmd/fedtrip); the heap profile is
// taken after the last experiment, with every memoised corpus still held.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runtext"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		profile = flag.String("profile", "fast", "profile: fast|paper|tiny")
		outPath = flag.String("o", "", "write tables to this file instead of stdout")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		verbose = flag.Bool("v", true, "print progress to stderr")
		sel     runtext.Selection
		prof    obs.Profiles
	)
	sel.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	flag.Parse()
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	stopProfiles, err := prof.Start()
	if err == nil {
		err = run(*expList, *profile, *outPath, *verbose, sel)
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedtrip-tables:", err)
		os.Exit(1)
	}
}

func run(expList, profile, outPath string, verbose bool, sel runtext.Selection) error {
	p, err := experiments.ByName(profile)
	if err != nil {
		return err
	}
	// A malformed spec fails here, before any dataset is generated.
	if _, err := sel.Parse(core.Config{}); err != nil {
		return err
	}
	p.Selection = p.Selection.Overlay(sel)
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	var logf experiments.Logf
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	var selected []experiments.Experiment
	if expList == "all" || expList == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(expList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Get(id)
			if !ok {
				return experiments.ErrUnknown(id)
			}
			selected = append(selected, e)
		}
	}
	fmt.Fprintf(out, "FedTrip reproduction — profile %q, %d experiment(s)\n\n", p.Name, len(selected))
	for _, e := range selected {
		start := time.Now()
		if verbose {
			fmt.Fprintf(os.Stderr, "== running %s: %s\n", e.ID, e.Title)
		}
		tables, err := e.Run(p, logf)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Render(out)
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "== %s done in %s\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
