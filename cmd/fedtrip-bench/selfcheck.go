package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runChild runs one workload once in a process of its own — a run is a
// process, so that nothing (heap, pools, page cache of the binary aside)
// carries from one run into the next — and returns every metric it
// printed, gated or not, by name.
func runChild(workload string, seed int64, seconds float64, stderr io.Writer) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		// "workload metric value unit [n=..]"; the counts, the digests
		// and the result line do not parse as that and are skipped.
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != workload {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			vals[f[1]] = v
		}
	}
	fmt.Fprintf(stderr, "fedtrip-bench: selfcheck: %s seed %d done\n", workload, seed)
	return vals, nil
}

// box describes the machine a baseline was taken on.
type box struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	OSArch    string `json:"os_arch"`
	CPU       string `json:"cpu"`
}

func thisBox() box {
	b := box{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return b
}

// baseline is the committed record of a selfcheck: per workload and
// metric, the median and quartiles over both sets pooled.
type baseline struct {
	Box        box                                 `json:"box"`
	RunsPerSet int                                 `json:"runs_per_set"`
	RunSeconds float64                             `json:"run_seconds"`
	Workloads  map[string]map[string]baselineValue `json:"workloads"`
}

type baselineValue struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// runSet is one set of runs: runSet[workload][metric] holds one value per
// run.
type runSet map[string]map[string][]float64

// selfCheck runs every workload n times (seeds 1..n), then n times again,
// and compares the two sets; see compare for what is printed and what
// fails.
func selfCheck(n int, seconds float64, baselineOut string, stdout, stderr io.Writer) int {
	bx := thisBox()
	fmt.Fprintf(stdout, "# fedtrip-bench -selfcheck %d -seconds %g: two sets of %d runs per workload, seeds 1..%d, one process per run\n", n, seconds, n, n)
	fmt.Fprintf(stdout, "# box: nproc=%d %s %s cpu=%q\n", bx.NProc, bx.GoVersion, bx.OSArch, bx.CPU)

	var sets [2]runSet
	for i := range sets {
		sets[i] = runSet{}
		for _, w := range workloads {
			vals := map[string][]float64{}
			for seed := int64(1); seed <= int64(n); seed++ {
				res, err := runChild(w.name, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "fedtrip-bench: selfcheck: %v\n", err)
					return 1
				}
				for name, v := range res {
					vals[name] = append(vals[name], v)
				}
			}
			sets[i][w.name] = vals
		}
	}

	medians, agree := compare(stdout, sets[0], sets[1])
	if baselineOut != "" {
		base := baseline{Box: bx, RunsPerSet: n, RunSeconds: seconds, Workloads: medians}
		data, err := json.MarshalIndent(base, "", "  ")
		if err == nil {
			err = os.WriteFile(baselineOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fedtrip-bench: selfcheck: %v\n", err)
			return 1
		}
	}
	if !agree {
		return 1
	}
	return 0
}

// compare prints, for every workload and metric of an untraced run, the
// two set medians, how far they disagree, each set's quartile spread and
// the bound, and returns the medians over both sets pooled. Two sets of the
// same code must agree within half the bound, or the bound means nothing:
// agree is false otherwise. A spread above a third of the bound is marked,
// since the acceptance driver asks for that margin. The host-time metrics
// carry no bound; their rows are the record of why.
func compare(w io.Writer, a, b runSet) (medians map[string]map[string]baselineValue, agree bool) {
	fmt.Fprintf(w, "# disagree = |median B - median A| / median A; spread = (Q3-Q1)/median as statistics.quantiles(n=4) gives them\n")
	fmt.Fprintf(w, "%-20s %-18s %-6s %14s %14s %10s %9s %9s %7s  %s\n",
		"workload", "metric", "unit", "median_A", "median_B", "disagree%", "spreadA%", "spreadB%", "bound%", "verdict")
	medians, agree = map[string]map[string]baselineValue{}, true
	for _, wl := range workloads {
		medians[wl.name] = map[string]baselineValue{}
		for i, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], hostTime...) {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			ma, mb := median(va), median(vb)
			disagree := math.Abs(mb-ma) / math.Abs(ma)
			verdict, bound := "ok", fmt.Sprintf("%.2f", 100*d.bound)
			switch {
			case i >= len(endToEnd):
				verdict, bound = "not gated", "-"
			case !(disagree <= d.bound/2):
				verdict = "FAIL: sets disagree by more than half the bound"
				agree = false
			case math.Max(spread(va), spread(vb)) > d.bound/3:
				verdict = "ok, spread above bound/3"
			}
			fmt.Fprintf(w, "%-20s %-18s %-6s %14.6g %14.6g %10.3f %9.3f %9.3f %7s  %s\n",
				wl.name, d.name, d.unit, ma, mb, 100*disagree, 100*spread(va), 100*spread(vb), bound, verdict)
			pooled := append(append([]float64(nil), va...), vb...)
			q1, q3 := quartiles(pooled)
			medians[wl.name][d.name] = baselineValue{Median: median(pooled), Q1: q1, Q3: q3, Unit: d.unit}
		}
	}
	return medians, agree
}
