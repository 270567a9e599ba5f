// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want "regex" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest in miniature (that module
// is not vendored here; the build must work offline). Fixtures live in
// testdata/src/<pkg>; their imports are resolved against the enclosing
// module's build cache, so a fixture may import repro/internal/prng and
// exercise the real seed-stream API.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe extracts the quoted patterns of a `// want "p1" "p2"` comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one want-pattern at a file:line, consumed when a
// diagnostic on that line matches it.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg>, applies the analyzer, and reports any
// mismatch between its diagnostics and the fixture's want comments as
// test errors. It returns the findings for additional assertions.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) []analysis.Finding {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	names, findings := load(t, dir, a, pkg)
	expects, err := parseWants(dir, names)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
	}
	for _, f := range findings {
		if !consume(expects, f) {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, f)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, e.file, e.line, e.pattern)
		}
	}
	return findings
}

// RunNoWant loads and analyzes the fixture like Run but ignores its
// want comments, returning the raw findings. It exists for asserting a
// configuration under which a fixture's violations must NOT fire.
func RunNoWant(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) []analysis.Finding {
	t.Helper()
	_, findings := load(t, filepath.Join(testdata, "src", pkg), a, pkg)
	return findings
}

// load parses, type-checks, and analyzes one fixture directory.
func load(t *testing.T, dir string, a *analysis.Analyzer, pkg string) ([]string, []analysis.Finding) {
	t.Helper()
	names, err := fixtureFiles(dir)
	if err != nil {
		t.Fatalf("listing fixture %s: %v", dir, err)
	}
	if len(names) == 0 {
		t.Fatalf("fixture %s has no .go files", dir)
	}
	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, dir, names)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", dir, err)
	}

	// Resolve the fixture's imports through the module's build cache:
	// `go list -export` produces (or reuses) export data for each one.
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		root, err := moduleRoot(dir)
		if err != nil {
			t.Fatalf("finding module root above %s: %v", dir, err)
		}
		exports, _, err = analysis.GoList(root, paths...)
		if err != nil {
			t.Fatalf("resolving fixture imports: %v", err)
		}
	}

	imp := analysis.NewImporter(fset, analysis.ExportLookup(exports))
	tp, info, err := analysis.Check(fset, pkg, files, imp)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	findings, err := analysis.Analyze(&analysis.Package{
		ImportPath: pkg,
		Dir:        dir,
		Fset:       fset,
		Syntax:     files,
		Types:      tp,
		TypesInfo:  info,
	}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, pkg, err)
	}
	return names, findings
}

// consume marks the first unmatched expectation on the finding's line
// whose pattern matches its message.
func consume(expects []*expectation, f analysis.Finding) bool {
	for _, e := range expects {
		if e.matched || e.file != filepath.Base(f.Pos.Filename) || e.line != f.Pos.Line {
			continue
		}
		if e.pattern.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseWants scans the fixture sources line by line for want comments.
// A plain-text scan (rather than the parsed comment lists) keeps the
// expectation's line number trivially equal to the line it annotates.
func parseWants(dir string, names []string) ([]*expectation, error) {
	var expects []*expectation
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, comment, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, q := range wantRe.FindAllString(comment, -1) {
				text, err := strconv.Unquote(q)
				if err != nil {
					return nil, err
				}
				re, err := regexp.Compile(text)
				if err != nil {
					return nil, err
				}
				expects = append(expects, &expectation{file: name, line: i + 1, pattern: re})
			}
		}
	}
	return expects, nil
}

// fixtureFiles returns the fixture directory's .go files, sorted.
func fixtureFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", os.ErrNotExist
		}
		d = parent
	}
}
