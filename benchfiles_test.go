package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchRun is one benchmark run of a BENCH_<pr>.json (cmd/benchrecord).
type benchRun struct {
	Seed    int64    `json:"seed"`
	Digests []string `json:"digests"`
	Result  struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

type benchFile struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	Date      string `json:"date"`
	Workloads map[string]struct {
		Runs   []benchRun `json:"runs"`
		Traced benchRun   `json:"traced"`
	} `json:"workloads"`
}

// benchDecl is what BENCHMARK.json declares: the workloads and the
// metrics an untraced (end-to-end) and a traced (per-layer) run print.
type benchDecl struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestBenchFiles checks every committed BENCH_*.json: the box it ran on
// is named, it holds every declared workload with at least five
// untraced runs at seeds 7, 8, … and one traced run at seed 7, every run
// passed and printed every declared metric, every pass of a run
// printed one digest, and a workload's runs at one seed share it. The
// totals are deterministic, so a workload's untraced runs print them
// exactly equal.
func TestBenchFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json")
	}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			var f benchFile
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			if f.Commit == "" || f.GoVersion == "" || f.NProc < 1 || f.CPU == "" || f.Date == "" {
				t.Errorf("the box is not named: commit %q, go %q, nproc %d, cpu %q, date %q", f.Commit, f.GoVersion, f.NProc, f.CPU, f.Date)
			}
			if len(f.Workloads) != len(decl.Workloads) {
				t.Errorf("%d workloads, BENCHMARK.json declares %d", len(f.Workloads), len(decl.Workloads))
			}
			for _, w := range decl.Workloads {
				wl, ok := f.Workloads[w.Name]
				if !ok {
					t.Errorf("%s: missing", w.Name)
					continue
				}
				if len(wl.Runs) < 5 {
					t.Errorf("%s: %d untraced runs, want at least 5", w.Name, len(wl.Runs))
				}
				digest := map[int64]string{}
				check := func(label string, r benchRun, metrics []struct{ Name string }) {
					if !r.Result.Correct || r.Result.Failed != 0 || r.Result.Attempted < 1 {
						t.Errorf("%s %s: correct %t, %d of %d operations failed", w.Name, label, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
					}
					for _, m := range metrics {
						if _, ok := r.Result.Metrics[m.Name]; !ok {
							t.Errorf("%s %s: no %s", w.Name, label, m.Name)
						}
					}
					if len(r.Digests) == 0 {
						t.Errorf("%s %s: no digests", w.Name, label)
					}
					for _, d := range r.Digests {
						if want, ok := digest[r.Seed]; ok && d != want {
							t.Errorf("%s %s: digest %s, another pass at seed %d printed %s", w.Name, label, d, r.Seed, want)
						}
						digest[r.Seed] = d
					}
				}
				for i, r := range wl.Runs {
					if r.Seed != int64(7+i) {
						t.Errorf("%s: run %d at seed %d, want %d", w.Name, i+1, r.Seed, 7+i)
					}
					check("untraced", r, decl.EndToEnd)
					for _, total := range []string{"total_gflops", "total_wire_mb"} {
						if got, want := r.Result.Metrics[total].Value, wl.Runs[0].Result.Metrics[total].Value; got != want {
							t.Errorf("%s: %s %v at seed %d, %v at seed %d", w.Name, total, got, r.Seed, want, wl.Runs[0].Seed)
						}
					}
				}
				if wl.Traced.Seed != 7 {
					t.Errorf("%s: traced run at seed %d, want 7", w.Name, wl.Traced.Seed)
				}
				check("traced", wl.Traced, decl.PerLayer)
			}
		})
	}
}
