// Package nakedgo flags `go` statements outside internal/par that do
// not route through the panic-isolation primitives. A panic on a raw
// goroutine kills the whole process — for datasynthd that means one
// hostile schema crashing the daemon instead of failing one job. PR 8
// closed that hole at the known worker layers; this analyzer keeps it
// closed everywhere by demanding that every goroutine either
//
//   - is spawned by internal/par itself (ForEach/ForEachCtx own their
//     recover discipline), or
//   - immediately calls a par primitive (par.Safe, par.ForEach,
//     par.ForEachCtx) somewhere in its function-literal body, so a panic is recovered into a *par.PanicError instead of
//     unwinding off the goroutine.
//
// Goroutines whose bodies are pure channel plumbing (and therefore
// cannot panic) are allow-listed at the site with
// //lint:allow nakedgo <reason> — the reason is mandatory, so every
// exemption carries its justification in the source.
//
// The check is a backstop, not a proof: a body that buries its par.Safe
// call behind unguarded work still passes. It exists to catch the
// common regression — a new worker pool written without any recover
// discipline at all.
package nakedgo

import (
	"go/ast"

	"datasynth/lint/analysis"
	"datasynth/lint/analyzers/internal/lintutil"
)

// parPkg is the panic-isolation package; its own internals are exempt.
const parPkg = "datasynth/internal/par"

// guards are the par functions that establish a recover boundary.
var guards = map[string]bool{
	"Safe":       true,
	"ForEach":    true,
	"ForEachCtx": true,
}

// Analyzer is the nakedgo check.
var Analyzer = &analysis.Analyzer{
	Name: "nakedgo",
	Doc: "flags go statements outside internal/par that don't route " +
		"through par.Safe/par.ForEach/par.ForEachCtx panic isolation",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == parPkg {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if guarded(pass, gs) {
				return true
			}
			pass.Reportf(gs.Go, "naked go statement: a panic here kills the process; route the fan-out through par.ForEach/par.ForEachCtx or wrap the body in par.Safe (or //lint:allow nakedgo <reason> if the body cannot panic)")
			return true
		})
	}
	return nil, nil
}

// guarded reports whether the go statement routes through a par
// recover boundary: either the spawned call itself is a par guard, or
// the spawned function literal contains a call to one.
func guarded(pass *analysis.Pass, gs *ast.GoStmt) bool {
	if f := lintutil.Callee(pass.TypesInfo, gs.Call); f != nil && lintutil.FromPkg(f, parPkg) && guards[f.Name()] {
		return true
	}
	lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := lintutil.Callee(pass.TypesInfo, call); f != nil && lintutil.FromPkg(f, parPkg) && guards[f.Name()] {
			found = true
			return false
		}
		return true
	})
	return found
}
