// Package fsdiscipline flags direct os filesystem calls in the cache
// and export layers. PR 8's fault-injection harness (internal/faultfs)
// only proves what it can reach: every filesystem verb in
// internal/service and internal/table must go through a faultfs.FS so
// the injected-fault tests (torn writes, failed renames, ENOSPC,
// crash-before-commit) keep covering the whole commit surface. A
// direct os.Rename is invisible to the harness — it works until the
// first real disk failure, exactly the class of bug the harness
// exists to keep dead.
//
// It also keeps publishing in one place: a name becomes visible by the
// rename in internal/store's Commit (and debris leaves by the one in
// its Quarantine), so a faultfs Rename anywhere else in the scope is a
// second, private commit protocol — the duplication PR 19 removed.
package fsdiscipline

import (
	"go/ast"
	"go/types"

	"datasynth/lint/analysis"
)

// scope is the set of packages whose filesystem access must be
// faultfs-mediated.
var scope = map[string]bool{
	"datasynth/internal/scenario": true,
	"datasynth/internal/service":  true,
	"datasynth/internal/store":    true,
	"datasynth/internal/table":    true,
}

// faultfsPath declares the FS whose Rename only storePath may call.
const (
	faultfsPath = "datasynth/internal/faultfs"
	storePath   = "datasynth/internal/store"
)

// verbs are the os functions mirrored by faultfs.FS; using any of them
// directly bypasses fault injection.
var verbs = map[string]bool{
	"Create":    true,
	"Open":      true,
	"Rename":    true,
	"WriteFile": true,
	"ReadFile":  true,
	"MkdirAll":  true,
	"RemoveAll": true,
	"Remove":    true,
	"ReadDir":   true,
	"Stat":      true,
}

// Analyzer is the fsdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "fsdiscipline",
	Doc: "flags direct os.Create/Open/Rename/... calls in the cache, registry, " +
		"store and export packages (filesystem access there must go through " +
		"faultfs.FS) and faultfs Rename calls outside internal/store",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || f.Pkg() == nil {
				return true
			}
			switch {
			case f.Pkg().Path() == "os" && verbs[f.Name()]:
				pass.Reportf(sel.Pos(), "direct os.%s bypasses faultfs.FS; route it through the package's FS so fault injection covers this path", f.Name())
			case f.Pkg().Path() == faultfsPath && f.Name() == "Rename" && pass.Pkg.Path() != storePath:
				pass.Reportf(sel.Pos(), "faultfs Rename outside internal/store is a private commit protocol; publish through store.Dir.Commit")
			}
			return true
		})
	}
	return nil, nil
}
