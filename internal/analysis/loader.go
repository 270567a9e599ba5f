package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks packages against compiler export data instead
// of re-type-checking dependency source: `go list -export -deps -json`
// compiles (or reuses from the build cache) every dependency's export
// file, and the standard library's gc importer reads them back. This is
// how `go vet` feeds its analyzers too; it works fully offline, and
// costs milliseconds per package once the build cache is warm — where
// re-checking the net/http tree from source would cost tens of seconds
// per run.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// GoList runs `go list -export -deps -json` for the patterns in dir and
// returns the export-data map (import path -> export file) plus the
// directly matched packages in deterministic order.
func GoList(dir string, patterns ...string) (map[string]string, []*listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,Standard,DepOnly,GoFiles",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Cgo-free file lists keep loads identical across hosts; nothing in
	// this repository uses cgo.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return exports, targets, nil
}

// NewImporter returns a types.Importer that resolves every import
// through lookup (an export-data reader keyed by import path). The
// "unsafe" package is handled by the type checker before the importer is
// consulted.
func NewImporter(fset *token.FileSet, lookup func(path string) (io.ReadCloser, error)) types.Importer {
	return importer.ForCompiler(fset, "gc", lookup)
}

// ExportLookup adapts an import-path -> export-file map into the lookup
// function NewImporter wants.
func ExportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// ParseFiles parses the named files (joined onto dir when relative) with
// comments retained.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Check type-checks one package's parsed files, resolving imports via
// imp, and returns the package with the object/type resolution the
// analyzers need.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// Load lists, parses, and type-checks every package matching the
// patterns (run from dir, which must be inside the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	exports, targets, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, ExportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		files, err := ParseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		tp, info, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Syntax:     files,
			Types:      tp,
			TypesInfo:  info,
		})
	}
	return pkgs, nil
}
