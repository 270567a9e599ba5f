// Command fedtrip-bench is the repository's benchmark: four workloads over
// the public run API (data.Generate, partition.Partition,
// comm.ParseTransport, core.NewRunState/Step/Snapshot/Resume/Finish), eight
// end-to-end metrics with a noise bound each, and a traced mode that
// attributes time to layers from outside the program. README.md has the
// protocol; BENCHMARK.json at the repository root declares what it prints.
//
//	go run ./cmd/fedtrip-bench -workload paper_cnn            # end-to-end metrics
//	go run ./cmd/fedtrip-bench -workload paper_cnn -trace     # per-layer metrics
//	go run ./cmd/fedtrip-bench -selfcheck 3                   # do two sets of runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// report is everything one run prints.
type report struct {
	workload string
	// defs go on standard output and into the result line; ungated go on
	// standard output only.
	defs, ungated     []metricDef
	values            map[string]sample
	attempted, failed int
	digests           []string
}

// result is the last line of standard output: the contract the acceptance
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "workload metric value unit" line per declared metric
// (with the sample count beside medians and percentiles), the operation
// counts and the pass digests, then the JSON result line. jsonOnly keeps
// only the last. A declared metric the run did not produce is a bug in
// this program, not a measurement, so it panics.
func (r report) print(w io.Writer, jsonOnly bool) error {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for i, d := range append(r.defs[:len(r.defs):len(r.defs)], r.ungated...) {
		s, ok := r.values[d.name]
		if !ok {
			panic("fedtrip-bench: no value for declared metric " + d.name)
		}
		if i < len(r.defs) {
			res.Metrics[d.name] = resultValue{s.value, d.unit}
		}
		if jsonOnly {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", r.workload, d.name, strconv.FormatFloat(s.value, 'g', -1, 64), d.unit)
		if s.n > 0 {
			line += fmt.Sprintf(" n=%d", s.n)
		}
		fmt.Fprintln(w, line)
	}
	if !jsonOnly {
		fmt.Fprintf(w, "%s attempted %d\n%s failed %d\n", r.workload, r.attempted, r.workload, r.failed)
		fmt.Fprintf(w, "%s digests %s\n", r.workload, strings.Join(r.digests, " "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// traceFile is what -trace-out receives.
type traceFile struct {
	Workload string                 `json:"workload"`
	Metrics  map[string]resultValue `json:"metrics"`
	Shares   []share                `json:"shares"`
	Layers   []layerStat            `json:"layers"`
	Spans    []span                 `json:"spans"`
}

func writeTrace(path string, r report, t *traced) error {
	tf := traceFile{Workload: r.workload, Metrics: map[string]resultValue{}, Shares: t.shares, Layers: t.layers, Spans: t.spans}
	for _, d := range r.defs {
		tf.Metrics[d.name] = resultValue{r.values[d.name].value, d.unit}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// normalizeTrace lets -trace be given bare (as a person types it) or with
// a 0/1 value in the next argument (as the acceptance driver passes it):
// the flag package accepts neither form for one flag by itself.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a != "-trace" && a != "--trace" {
			out = append(out, a)
			continue
		}
		val := "1"
		if i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				val = args[i+1]
				i++
			}
		}
		out = append(out, "-trace="+val)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedtrip-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 7, "seed of the generated inputs (corpus and partition)")
	seconds := fs.Float64("seconds", 12, "pass time one run measures: the budget the workloads are sized for (a run always makes 5 timed passes)")
	rounds := fs.Int("rounds", 0, "rounds per pass (0 = the workload's own size); for smoke runs, not for numbers")
	trace := fs.Bool("trace", false, "traced run: print the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "traced run: write spans, layer self times and shares to this file as JSON")
	jsonOnly := fs.Bool("json", false, "print only the JSON result line")
	selfcheck := fs.Int("selfcheck", 0, "run every workload N times, then N times again, and compare the two sets (0 = off)")
	baselineOut := fs.String("baseline-out", "", "selfcheck: write the pooled medians and the box description to this file as JSON")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fedtrip-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *selfcheck > 0 {
		return selfCheck(*selfcheck, *seconds, *baselineOut, stdout, stderr)
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "fedtrip-bench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), " | "))
		return 2
	}
	if *rounds > 0 {
		w = w.withRounds(*rounds)
	}
	runtime.GOMAXPROCS(procs)
	b := &bench{w: w, seed: *seed, trainN: corpusSize, seconds: *seconds, log: stderr}
	r := report{workload: w.name}
	var t *traced
	var err error
	if *trace {
		r.defs = perLayer
		if t, err = b.measureTraced(); err == nil {
			r.values = t.metrics
		}
	} else {
		r.defs, r.ungated = endToEnd, hostTime
		r.values, err = b.measure()
	}
	if err != nil {
		fmt.Fprintf(stderr, "fedtrip-bench: %s: %v\n", w.name, err)
		return 1
	}
	r.attempted, r.failed, r.digests = b.attempted, b.failed, b.digests
	if t != nil {
		for _, s := range t.shares {
			b.logf("share of traced-pass CPU: %-30s %5.1f %%", s.Layer, s.Pct)
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, r, t); err != nil {
				fmt.Fprintf(stderr, "fedtrip-bench: %v\n", err)
				return 1
			}
		}
	}
	if err := r.print(stdout, *jsonOnly); err != nil {
		fmt.Fprintf(stderr, "fedtrip-bench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
