// Command fedtripvet runs the repository's determinism analyzers (see
// internal/analysis) over package patterns (default ./...):
//
//	go run ./cmd/fedtripvet ./...
//
// Exit status: 0 clean, 1 on findings or on a load or type-check failure.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fedtripvet: ")
	analyzers := analysis.All()
	fs := flag.NewFlagSet("fedtripvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: fedtripvet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	_ = fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		log.Fatal(err)
	}
	findings, err := analysis.AnalyzePackages(pkgs, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		log.Fatalf("%d finding(s) in %d package(s)", len(findings), len(pkgs))
	}
}
