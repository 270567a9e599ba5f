package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewHotPath returns the hotpath analyzer: functions annotated
// //fedtripvet:hotpath must stay allocation-free. The steady-state
// train->upload->aggregate->merge cycle is pinned at 0 allocs/op by the
// benchmarks; this analyzer catches the regressions at vet time, before
// a benchmark run, by rejecting the constructs that allocate on every
// call:
//
//   - fmt.* calls (interface boxing + formatting state),
//   - map construction (make(map...) or a map literal),
//   - append (growth is amortized away only for pooled, pre-sized
//     buffers — which is exactly what //fedtripvet:allow documents),
//   - make of a slice whose length or capacity is not a constant (a
//     vector sized by the model or the batch: the buffer to recycle;
//     grow-once sites and first-participation state say so with
//     //fedtripvet:allow),
//   - a bytes.Buffer or a bufio reader/writer (marshalling on a path
//     that only needs the values),
//   - closures capturing loop variables (the capture forces the
//     variable, and often the closure, onto the heap).
//
// The checks are intraprocedural and syntactic by design: they gate the
// annotated function's own body, while the alloc-counting benchmarks
// remain the end-to-end proof.
func NewHotPath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc: "forbid allocating constructs in //fedtripvet:hotpath functions\n\n" +
			"No fmt calls, no map construction, no unannotated append, no\n" +
			"make of a slice with a non-constant size, no bytes.Buffer or\n" +
			"bufio construction, no closures over loop variables. Escape\n" +
			"hatch: //fedtripvet:allow <reason> (e.g. a pooled buffer whose\n" +
			"capacity is ensured, or a cold error path).",
	}
	a.Run = func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !isHotpath(fn) {
					continue
				}
				checkHotpathBody(pass, fn.Body)
			}
		}
		return nil, nil
	}
	return a
}

// checkHotpathBody walks one hot function's body, tracking the stack of
// enclosing loops so closures can be checked for loop-variable capture.
func checkHotpathBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var loops []*loopHeader
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, &loopHeader{from: n.Pos(), to: n.Body.Pos(), end: n.End()})
		case *ast.RangeStmt:
			loops = append(loops, &loopHeader{from: n.Pos(), to: n.Body.Pos(), end: n.End()})
		case *ast.FuncLit:
			reportLoopCaptures(pass, n, liveLoops(loops, n.Pos()))
		case *ast.CompositeLit:
			if isMapType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "map literal on the hot path allocates; hoist it out of the hot function")
			}
			reportBuffer(pass, n.Pos(), info.TypeOf(n))
		case *ast.ValueSpec:
			if n.Type != nil {
				reportBuffer(pass, n.Pos(), info.TypeOf(n.Type))
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, n)
		}
		return true
	})
}

// loopHeader records one enclosing loop: variables declared in
// [from, to) are its header variables; the loop's extent ends at end.
type loopHeader struct{ from, to, end token.Pos }

// liveLoops filters the loop stack to loops whose body still encloses
// pos (ast.Inspect has no post-order pop, so stale frames are filtered
// by extent instead).
func liveLoops(loops []*loopHeader, pos token.Pos) []*loopHeader {
	var live []*loopHeader
	for _, l := range loops {
		if pos >= l.to && pos < l.end {
			live = append(live, l)
		}
	}
	return live
}

// reportLoopCaptures reports identifiers inside the closure that
// resolve to variables declared in an enclosing loop's header.
func reportLoopCaptures(pass *Pass, fl *ast.FuncLit, loops []*loopHeader) {
	if len(loops) == 0 {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || reported[obj] {
			return true
		}
		for _, l := range loops {
			if obj.Pos() >= l.from && obj.Pos() < l.to {
				reported[obj] = true
				pass.Reportf(fl.Pos(), "closure captures loop variable %s, forcing it to the heap on the hot path", obj.Name())
				return true
			}
		}
		return true
	})
}

// reportBuffer reports the construction of a bytes.Buffer value.
func reportBuffer(pass *Pass, pos token.Pos, t types.Type) {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "bytes" && named.Obj().Name() == "Buffer" {
		pass.Reportf(pos, "bytes.Buffer on the hot path marshals through a growing allocation; write into a caller-owned buffer instead")
	}
}

// checkHotpathCall flags fmt calls, buffer constructors, the append
// builtin, and make calls of maps and of non-constant-sized slices.
func checkHotpathCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		pn, ok := importedPkg(info, fun.X)
		if !ok {
			return
		}
		switch path := pn.Imported().Path(); {
		case path == "fmt":
			pass.Reportf(call.Pos(), "fmt.%s on the hot path allocates; move formatting off the hot path (or annotate a cold error path with //fedtripvet:allow <reason>)", fun.Sel.Name)
		case path == "bufio" && strings.HasPrefix(fun.Sel.Name, "New"),
			path == "bytes" && strings.HasPrefix(fun.Sel.Name, "NewBuffer"):
			pass.Reportf(call.Pos(), "%s.%s on the hot path allocates a buffer per call; write into a caller-owned buffer instead", pn.Imported().Name(), fun.Sel.Name)
		}
	case *ast.Ident:
		b, ok := info.Uses[fun].(*types.Builtin)
		if !ok {
			return
		}
		switch b.Name() {
		case "append":
			pass.Reportf(call.Pos(), "append on the hot path may allocate; use a pooled, pre-sized buffer and annotate with //fedtripvet:allow <reason>")
		case "make":
			if isMapType(info.TypeOf(call)) {
				pass.Reportf(call.Pos(), "make(map) on the hot path allocates; hoist the map out of the hot function")
			}
			if _, ok := info.TypeOf(call).Underlying().(*types.Slice); ok && !constantArgs(info, call.Args[1:]) {
				pass.Reportf(call.Pos(), "make of a slice with a non-constant size on the hot path allocates per call; recycle a buffer (and annotate a grow-once site with //fedtripvet:allow <reason>)")
			}
		case "new":
			reportBuffer(pass, call.Pos(), info.TypeOf(call.Args[0]))
		}
	}
}

// constantArgs reports whether every expression is a compile-time
// constant.
func constantArgs(info *types.Info, args []ast.Expr) bool {
	for _, a := range args {
		if info.Types[a].Value == nil {
			return false
		}
	}
	return true
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
