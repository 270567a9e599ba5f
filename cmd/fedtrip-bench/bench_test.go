package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median sorted its argument in place")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{40, 10, 20}, 10, 40},
		{[]float64{2.0, 2.1, 1.9, 2.4, 2.0}, 1.95, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{2.0, 2.1, 1.9, 2.4, 2.0}); !near(got, 0.15) {
		t.Errorf("spread = %v, want (2.25-1.95)/2.0 = 0.15", got)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 0 || q3 != 0 {
		t.Errorf("quartiles of one sample = %v, %v; want 0, 0", q1, q3)
	}
}

// A host on which the probe's slice takes a quarter longer than the
// reference reports 0.8 of what the clock read, and the two readings
// around a build count equally.
func TestAtReferenceSpeed(t *testing.T) {
	if got := atReferenceSpeed(2, referenceMS, referenceMS); !near(got, 2) {
		t.Errorf("at the reference readings: %v, want 2", got)
	}
	if got := atReferenceSpeed(2, 1.25*referenceMS, 1.25*referenceMS); !near(got, 1.6) {
		t.Errorf("on a host a quarter slower: %v, want 1.6", got)
	}
	if got := atReferenceSpeed(2, referenceMS, 3*referenceMS); !near(got, 1) {
		t.Errorf("between readings of 1x and 3x: %v, want 1", got)
	}
	if ms := newSpeedProbe().read(); !(ms > 0) {
		t.Errorf("a reading took %v ms", ms)
	}
}

// The benchmark's own checkpoint buffer is not runtime state.
func TestStateBytesLeavesOutTheCheckpointBuffer(t *testing.T) {
	var b bench
	b.snapBuf.Grow(1 << 20)
	if got, want := b.stateBytes(5<<20, 1<<20), float64(4<<20-b.snapBuf.Cap()); got != want {
		t.Errorf("stateBytes = %v, want %v", got, want)
	}
}

// A parent [0,100] with children [10,40] and [30,60] (overlapping, as two
// workers produce) and [90,120] (running past the parent's end): the union
// inside the parent is [10,60] + [90,100] = 60, so self time is 40.
func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{cur: -1, spans: []span{
		{Name: "bench.pass", Start: 0, End: 100e6, Parent: -1},
		{Name: "core.step", Start: 10e6, End: 40e6, Parent: 0},
		{Name: "core.step", Start: 30e6, End: 60e6, Parent: 0},
		{Name: "core.step", Start: 90e6, End: 120e6, Parent: 0},
		{Name: "comm.up", Start: 12e6, End: 14e6, Parent: 1},
	}}
	got := map[string]layerStat{}
	for _, l := range tr.finish() {
		got[l.Name] = l
	}
	want := map[string]layerStat{
		"bench.pass": {Name: "bench.pass", Count: 1, TotalMS: 100, SelfMS: 40},
		"core.step":  {Name: "core.step", Count: 3, TotalMS: 90, SelfMS: 88},
		"comm.up":    {Name: "comm.up", Count: 1, TotalMS: 2, SelfMS: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers = %+v\nwant     %+v", got, want)
	}
	ids := []string{}
	for _, s := range tr.spans {
		ids = append(ids, s.ID)
	}
	if want := []string{"1/0", "1/1", "1/2", "1/3", "1/1"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("span ids = %v, want %v", ids, want)
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"-workload x -trace", "-workload x -trace=1"},
		{"--trace 0 --seed 3", "-trace=0 --seed 3"},
		{"--workload x --seed 3 --seconds 12 --trace 1", "--workload x --seed 3 --seconds 12 -trace=1"},
		{"-trace -json", "-trace=1 -json"},
		{"-trace=0", "-trace=0"},
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// miniCorpus and miniature shrink a workload so a whole run takes well
// under a second: same runtime, policy, transport, faults and model, a
// 200-client fleet at most, two rounds per pass.
const miniCorpus = 1200

func miniature(w workload) workload {
	w = w.withRounds(2)
	clamp := func(v *int, max int) {
		if *v > max {
			*v = max
		}
	}
	clamp(&w.clients, 200)
	clamp(&w.perClient, 20)
	clamp(&w.batch, 10)
	clamp(&w.k, 4)
	clamp(&w.concurrency, 16)
	clamp(&w.buffer, 4)
	clamp(&w.testN, 50)
	return w
}

func miniBench(w workload) *bench {
	return &bench{w: miniature(w), seed: 3, trainN: miniCorpus, log: io.Discard}
}

// The wrappers must be invisible to the trajectory: a traced pass has the
// digest of an untraced one, with no transport, a stateless one and the
// stateful error-feedback one — the last two through a snapshot -> resume
// cycle, which serialises the wrapped transport's state.
func TestWrappersAreDigestNeutral(t *testing.T) {
	base, _ := findWorkload("sync10k_f32_ckpt")
	for _, transport := range []string{"none", "f32", "topk:0.01+ef"} {
		t.Run(transport, func(t *testing.T) {
			w := base
			w.transport = transport
			b := miniBench(w)
			in, err := b.w.generate(b.seed, b.trainN, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := b.runPass(in, procs, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := b.runPass(in, procs, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.snapBytes == 0 || traced.snapBytes != plain.snapBytes {
				t.Errorf("snapshot bytes: untraced %d, traced %d; want equal and non-zero", plain.snapBytes, traced.snapBytes)
			}
			if b.failed != 0 || plain.res.Digest() != traced.res.Digest() {
				t.Errorf("untraced digest %s, traced %s, %d failed operations", plain.res.Digest(), traced.res.Digest(), b.failed)
			}
			tr.finish()
			wantUps := 0
			if transport != "none" {
				wantUps = traced.updates(b.w)
			}
			if got := len(tr.durationsMS("comm.up")); got != wantUps {
				t.Errorf("%d comm.up spans, want %d", got, wantUps)
			}
			if got := len(tr.durationsMS("core.step")); got != b.w.rounds {
				t.Errorf("%d core.step spans, want %d", got, b.w.rounds)
			}
		})
	}
}

// The wrapper offers the snapshot capability exactly when the inner
// transport does: core.Snapshot writes a presence flag from the type.
func TestTraceTransportKeepsCapabilities(t *testing.T) {
	for _, spec := range []string{"f32", "lossless", "q8", "topk:0.01+ef", "randk:0.05"} {
		inner, err := comm.ParseTransport(spec)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := traceTransport(inner, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		_, innerStateful := inner.(core.StatefulTransport)
		_, wrappedStateful := wrapped.(core.StatefulTransport)
		if innerStateful != wrappedStateful {
			t.Errorf("%s: inner stateful=%t, wrapped stateful=%t", spec, innerStateful, wrappedStateful)
		}
		if _, ok := wrapped.(core.SizedTransport); !ok {
			t.Errorf("%s: wrapper lost SizedTransport", spec)
		}
		if got := wrapped.(interface{ String() string }).String(); got != spec {
			t.Errorf("wrapper names itself %q, want %q", got, spec)
		}
	}
	if wrapped, err := traceTransport(nil, newTracer()); wrapped != nil || err != nil {
		t.Errorf("traceTransport(nil) = %v, %v; want nil, nil", wrapped, err)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables this program prints from must say the same
// thing, name for name.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if want := []string{"cmd/fedtrip-bench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}
	if want := []string{"go", "run", "./cmd/fedtrip-bench"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := bj.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	check := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(decl), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if got := (metricDef{decl[i].Name, decl[i].Unit, decl[i].Better, decl[i].Bound}); got != d {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: metric name %q is malformed or repeated", kind, d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// printedMetrics parses the "workload metric value unit" lines and the
// final JSON line of a report.
func printedMetrics(t *testing.T, r report) (lines map[string]string, last result) {
	t.Helper()
	var out bytes.Buffer
	if err := r.print(&out, false); err != nil {
		t.Fatal(err)
	}
	all := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(all[len(all)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	lines = map[string]string{}
	for _, l := range all[:len(all)-1] {
		f := strings.Fields(l)
		if f[0] != r.workload {
			t.Errorf("line %q does not start with the workload name", l)
		}
		if f[1] == "attempted" || f[1] == "failed" || f[1] == "digests" {
			continue
		}
		lines[f[1]] = f[3]
	}
	return lines, last
}

// Every workload, in miniature, through both modes: no failed operation,
// one digest, and exactly the declared metrics printed, each with its unit.
func TestEveryWorkloadPrintsTheDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stateMB []float64 // untraced, then traced
			for _, mode := range []struct {
				name          string
				defs, ungated []metricDef
			}{{"end_to_end", endToEnd, hostTime}, {"per_layer", perLayer, nil}} {
				b := miniBench(w)
				r := report{workload: w.name, defs: mode.defs, ungated: mode.ungated}
				if mode.name == "per_layer" {
					tr, err := b.measureTraced()
					if err != nil {
						t.Fatal(err)
					}
					r.values = tr.metrics
					stateMB = append(stateMB, r.values["core.state_bytes_per_participant"].value*r.values["core.participants"].value/(1<<20))
					if len(tr.spans) == 0 || len(tr.layers) == 0 || len(tr.shares) == 0 {
						t.Error("traced run kept no spans, layers or shares")
					}
				} else {
					var err error
					if r.values, err = b.measure(); err != nil {
						t.Fatal(err)
					}
					stateMB = append(stateMB, r.values["state_heap_mb"].value)
				}
				r.attempted, r.failed, r.digests = b.attempted, b.failed, b.digests
				if r.failed != 0 || r.attempted == 0 {
					t.Errorf("%s: %d of %d operations failed", mode.name, r.failed, r.attempted)
				}
				for _, d := range r.digests {
					if d != r.digests[0] {
						t.Errorf("%s: pass digests differ: %v", mode.name, r.digests)
						break
					}
				}
				lines, last := printedMetrics(t, r)
				var printed, want []string
				for name := range lines {
					printed = append(printed, name)
				}
				for _, d := range mode.defs {
					want = append(want, d.name)
					if lines[d.name] != d.unit || last.Metrics[d.name].Unit != d.unit {
						t.Errorf("%s: %s printed with unit %q / %q, want %q", mode.name, d.name, lines[d.name], last.Metrics[d.name].Unit, d.unit)
					}
					if v := last.Metrics[d.name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v", mode.name, d.name, v)
					}
				}
				// The result line holds the declared metrics and no other;
				// the ungated ones are printed above it only.
				if len(last.Metrics) != len(want) {
					t.Errorf("%s: result line has %d metrics, want %d", mode.name, len(last.Metrics), len(want))
				}
				for _, d := range mode.ungated {
					want = append(want, d.name)
					if lines[d.name] != d.unit {
						t.Errorf("%s: %s printed with unit %q, want %q", mode.name, d.name, lines[d.name], d.unit)
					}
				}
				sort.Strings(printed)
				sort.Strings(want)
				if !reflect.DeepEqual(printed, want) {
					t.Errorf("%s: printed %v\nwant %v", mode.name, printed, want)
				}
				if !last.Correct || last.Attempted != r.attempted || last.Failed != 0 {
					t.Errorf("%s: result line %+v", mode.name, last)
				}
			}
			// Both modes weigh the same run state, the benchmark's own
			// checkpoint buffer left out of both.
			if math.Abs(stateMB[0]-stateMB[1]) > 0.25*stateMB[0] {
				t.Errorf("state heap: %.1f MiB untraced, %.1f MiB traced", stateMB[0], stateMB[1])
			}
		})
	}
}

// Two sets that agree pass; a set whose peak_rss_mb median moved by more
// than half that metric's bound fails, and only that. The host-time
// metrics have no bound to fail.
func TestCompareFailsOnDisagreementBeyondHalfTheBound(t *testing.T) {
	var bound float64
	for _, d := range endToEnd {
		if d.name == "peak_rss_mb" {
			bound = d.bound
		}
	}
	set := func(rss float64) runSet {
		s := runSet{}
		for _, w := range workloads {
			s[w.name] = map[string][]float64{}
			for _, d := range endToEnd {
				s[w.name][d.name] = []float64{100, 100, 100}
			}
			for _, d := range hostTime { // far apart between the sets, and wide
				k := rss - 99
				s[w.name][d.name] = []float64{k, 2 * k, 3 * k}
			}
			s[w.name]["peak_rss_mb"] = []float64{rss, rss, rss}
		}
		return s
	}
	var out bytes.Buffer
	medians, agree := compare(&out, set(100), set(100*(1+0.4*bound)))
	if !agree {
		t.Errorf("sets 0.4 bounds apart must agree:\n%s", out.String())
	}
	if got := medians["paper_cnn"]["peak_rss_mb"]; got.Unit != "MB" || !near(got.Median, 100*(1+0.2*bound)) {
		t.Errorf("pooled median = %+v", got)
	}
	out.Reset()
	if _, agree := compare(&out, set(100), set(100*(1+0.6*bound))); agree {
		t.Errorf("sets 0.6 bounds apart must not agree:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "FAIL"); got != len(workloads) {
		t.Errorf("%d FAIL lines, want one per workload (%d):\n%s", got, len(workloads), out.String())
	}
	if got, want := strings.Count(out.String(), "not gated"), len(hostTime)*len(workloads); got != want {
		t.Errorf("%d rows marked not gated, want %d:\n%s", got, want, out.String())
	}
}
