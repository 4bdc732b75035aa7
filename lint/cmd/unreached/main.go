// Command unreached is the reachability ratchet: it fails when a
// function, method or package-level variable declared under internal/
// is linked into no entry point and is not on the allowlist, and when
// an allowlisted one is linked again or no longer declared. So the
// allowlist can only shrink.
//
// It keeps a second tier the same way: a symbol that entry points link
// but neither product binary (cmd/datasynth, cmd/datasynthd) does — one
// only graphstats, sbmpart-eval, examples/ or bench/ reach — must be
// listed in the allowlist's [evaluation-only] section, so that
// evaluation-only code in a product package is a decision someone made.
// internal/exp, the paper's evaluation, is evaluation by definition and
// has no such tier.
//
// A per-package analyzer cannot see whole-program reachability; the
// linker already computes it. The command builds every entry point —
// each main package under cmd/ and examples/, and the bench/ harness
// (its own module) — with inlining off, so a function that is called
// is a symbol of its own, and reads each binary's symbol table with
// `go tool nm`; the linker drops a variable nothing reads as it drops
// a function nothing calls. Closures (F.func1, F.func1.2, F.gowrap1,
// F.deferwrap1, F-range1), method values (M-fm) and generic
// instantiations (F[go.shape.int]) fold into the function that declares
// them. Package init functions always run, so they are never reported.
//
// Usage, from the repository root:
//
//	go run ./lint/cmd/unreached
//
// The allowlist, lint/unreached.allow, holds one symbol a line as this
// command prints it, followed by "# reason"; the reason is mandatory.
// Its first section is for test seams: code only tests call, on
// purpose. The lines after a line reading [evaluation-only] are the
// second tier: code only the evaluation entry points call. Exit status
// is 0 when clean, 1 when there are findings, 2 on a driver error —
// including a build that fails or binaries that link nothing of the
// module, so a run that read nothing never passes.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run())
}

// allowPath is the allowlist of test seams, relative to the repository
// root.
const allowPath = "lint/unreached.allow"

func run() int {
	module, err := modulePath("go.mod")
	if err != nil {
		return fail(err)
	}
	decls, err := declared(module, "internal")
	if err != nil {
		return fail(err)
	}
	linked, product, roots, err := linkedSymbols(module)
	if err != nil {
		return fail(err)
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return fail(err)
	}
	found := findings(decls, linked, product, allow)
	for _, f := range found {
		fmt.Println(f)
	}
	fmt.Fprintf(os.Stderr, "unreached: %d roots, %d declared, %d linked (%d by the product), %d allowlisted, %d findings\n",
		roots, len(decls), len(linked), len(product), len(allow), len(found))
	if len(found) > 0 {
		return 1
	}
	return 0
}

// findings compares the declared symbols with what the entry points
// link (linked) and what the product binaries link (product) and with
// the allowlist, and returns one sorted line per mismatch.
func findings(decls map[string]string, linked, product map[string]bool, allow map[string]allowed) []string {
	var out []string
	for sym, pos := range decls {
		if _, listed := allow[sym]; listed {
			continue
		}
		switch {
		case !linked[sym]:
			out = append(out, fmt.Sprintf("%s: %s is linked into no entry point", pos, sym))
		case !product[sym] && !evaluationPackage(sym):
			out = append(out, fmt.Sprintf("%s: %s is linked only by evaluation entry points; list it under %s or call it from the product", pos, sym, evaluationHeader))
		}
	}
	for sym, a := range allow {
		at := fmt.Sprintf("%s:%d: %s is allowlisted", allowPath, a.line, sym)
		switch {
		case decls[sym] == "":
			out = append(out, at+" but not declared; delete the line")
		case product[sym]:
			out = append(out, at+" but the product links it; delete the line")
		case a.evaluation && evaluationPackage(sym):
			out = append(out, at+" as evaluation-only but its package is evaluation code; delete the line")
		case linked[sym] && !a.evaluation:
			out = append(out, at+" as a test seam but evaluation entry points link it; move the line under "+evaluationHeader)
		case !linked[sym] && a.evaluation:
			out = append(out, at+" as evaluation-only but no entry point links it; move the line above "+evaluationHeader+" or delete it")
		}
	}
	sort.Strings(out)
	return out
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "unreached:", err)
	return 2
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("%v (run from the repository root)", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// declared maps the symbol of every function, method and package-level
// variable declared in a non-test file under dir to its position.
// Package init functions and blank variables are left out.
func declared(module, dir string) (map[string]string, error) {
	fset := token.NewFileSet()
	decls := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || d.Name.Name != "init" {
					decls[symbol(pkg, d)] = fset.Position(d.Pos()).String()
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.Name != "_" {
							decls[pkg+"."+name.Name] = fset.Position(name.Pos()).String()
						}
					}
				}
			}
		}
		return nil
	})
	if len(decls) == 0 && err == nil {
		err = fmt.Errorf("no function declared under %s", dir)
	}
	return decls, err
}

// symbol names fd the way the linker does: pkg.F, pkg.T.M or
// pkg.(*T).M, with a generic receiver's type parameters dropped.
func symbol(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// evaluationPkgs are the packages under internal/ that only evaluation
// entry points are meant to link, so the product tier skips them.
var evaluationPkgs = []string{"internal/exp"}

// evaluationPackage reports whether sym is declared in one of
// evaluationPkgs.
func evaluationPackage(sym string) bool {
	slash := strings.LastIndex(sym, "/")
	name, _, _ := strings.Cut(sym[slash+1:], ".")
	pkg := sym[:slash+1] + name
	return slices.ContainsFunc(evaluationPkgs, func(p string) bool { return strings.HasSuffix(pkg, "/"+p) })
}

// productRoots are the binaries a user of the generator runs; every
// other entry point is an evaluation tool, an example or the benchmark.
var productRoots = []string{"datasynth", "datasynthd"}

// linkedSymbols builds every entry point with inlining off into a
// temporary directory and returns the module's text symbols the
// binaries hold, folded into their declaring functions, with their
// data symbols (package-level variables); the same for the product
// binaries alone; and how many binaries it read.
func linkedSymbols(module string) (linked, product map[string]bool, roots int, err error) {
	dir, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	builds := [][]string{
		{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator), "./cmd/...", "./examples/..."},
		{"build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench"), "."},
	}
	for _, args := range builds {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			return nil, nil, 0, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	linked, product = map[string]bool{}, map[string]bool{}
	products := 0
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		isProduct := slices.Contains(productRoots, b.Name())
		if isProduct {
			products++
		}
		n := 0
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// Each line is "address type name"; T and t are text, D,
			// B and R (or lower case, unexported) data, bss and
			// read-only data.
			f := strings.Fields(sc.Text())
			if len(f) == 3 && strings.Contains("TtDdBbRr", f[1]) && strings.HasPrefix(f[2], module+"/") {
				sym := fold(f[2])
				linked[sym] = true
				if isProduct {
					product[sym] = true
				}
				n++
			}
		}
		if n == 0 {
			return nil, nil, 0, fmt.Errorf("%s links no function of %s", b.Name(), module)
		}
	}
	if products != len(productRoots) {
		return nil, nil, 0, fmt.Errorf("built %d of the product binaries %v", products, productRoots)
	}
	return linked, product, len(bins), nil
}

// wrapperSuffix matches one closure or wrapper suffix the compiler adds
// to the function that declares it.
var wrapperSuffix = regexp.MustCompile(`(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|\.[0-9]+|-range[0-9]+|-fm)$`)

// fold maps a linker symbol to the function that declares it: generic
// instantiations lose their bracketed shapes, then closure and wrapper
// suffixes come off one at a time.
func fold(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = b.String()
	for {
		loc := wrapperSuffix.FindStringIndex(sym)
		if loc == nil {
			return sym
		}
		sym = sym[:loc[0]]
	}
}

// evaluationHeader starts the allowlist's second section.
const evaluationHeader = "[evaluation-only]"

// allowed is one allowlist line: where it is, and whether it lies in
// the evaluation-only section.
type allowed struct {
	line       int
	evaluation bool
}

// readAllow reads the allowlist. A line is "symbol # reason"; blank
// lines and lines starting with # are skipped, and the lines after
// evaluationHeader are the evaluation-only section.
func readAllow(path string) (map[string]allowed, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]allowed{}
	evaluation := false
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == evaluationHeader && !evaluation {
			evaluation = true
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym = strings.TrimSpace(sym)
		if strings.TrimSpace(reason) == "" || strings.ContainsAny(sym, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"symbol # reason\", got %q", path, i+1, line)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, sym)
		}
		allow[sym] = allowed{i + 1, evaluation}
	}
	return allow, nil
}
