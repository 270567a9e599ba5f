// Command benchrecord runs a built fedtrip-bench binary over every
// workload BENCHMARK.json declares and writes what it printed, with the
// box it ran on, to BENCH_<pr>.json:
//
//	go build -o /tmp/fedtrip-bench ./cmd/fedtrip-bench
//	go run ./cmd/benchrecord -bin /tmp/fedtrip-bench -pr 48
//
// Per workload it makes five untraced runs at seeds 7–11, the fewest
// TestBenchFiles accepts, and one traced run at seed 7, and keeps each run's digest line and its JSON
// result line. It reads only the benchmark's standard output and never
// imports it; the root package's TestBenchFiles checks what it writes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Run is one benchmark invocation: its seed, the digests of its passes
// and its JSON result line.
type Run struct {
	Seed    int64           `json:"seed"`
	Digests []string        `json:"digests"`
	Result  json.RawMessage `json:"result"`
}

// Workload is one workload's runs.
type Workload struct {
	Runs   []Run `json:"runs"`
	Traced Run   `json:"traced"`
}

// File is a BENCH_<pr>.json.
type File struct {
	PR        int                 `json:"pr"`
	Commit    string              `json:"commit"`
	GoVersion string              `json:"go_version"`
	NProc     int                 `json:"nproc"`
	CPU       string              `json:"cpu"`
	Date      string              `json:"date"`
	Workloads map[string]Workload `json:"workloads"`
}

// runs is the untraced runs per workload, at seeds 7, 8, ….
const runs = 5

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrecord: ")
	bin := flag.String("bin", "", "the built fedtrip-bench binary")
	pr := flag.Int("pr", 0, "the change the numbers are for; the file is BENCH_<pr>.json")
	flag.Parse()
	if *bin == "" || *pr <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		log.Fatal(err)
	}
	f := File{
		PR:        *pr,
		Commit:    strings.TrimSpace(output("git", "rev-parse", "HEAD")),
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		CPU:       cpuModel(),
		Date:      time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]Workload{},
	}
	for _, w := range decl.Workloads {
		var wl Workload
		for i := 0; i < runs; i++ {
			wl.Runs = append(wl.Runs, bench(*bin, w.Name, int64(7+i), false))
		}
		wl.Traced = bench(*bin, w.Name, 7, true)
		f.Workloads[w.Name] = wl
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	name := fmt.Sprintf("BENCH_%d.json", *pr)
	if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", name)
}

// bench runs the benchmark once and keeps its digest line and its last
// line, the JSON result.
func bench(bin, workload string, seed int64, traced bool) Run {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed)}
	if traced {
		args = append(args, "-trace")
	}
	log.Printf("%s %s", bin, strings.Join(args, " "))
	r := Run{Seed: seed}
	var last string
	sc := bufio.NewScanner(strings.NewReader(output(bin, args...)))
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) > 2 && f[0] == workload && f[1] == "digests" {
			r.Digests = f[2:]
		}
	}
	if !json.Valid([]byte(last)) {
		log.Fatalf("%s: the last line is not a JSON result: %q", workload, last)
	}
	r.Result = json.RawMessage(last)
	return r
}

// output runs a command and returns its standard output, stopping the
// helper if it fails.
func output(name string, args ...string) string {
	var stdout bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return stdout.String()
}

// cpuModel is the first "model name" line of /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
