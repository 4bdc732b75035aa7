package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestFold(t *testing.T) {
	for sym, want := range map[string]string{
		"m/p.F":                            "m/p.F",
		"m/p.F.func1":                      "m/p.F",
		"m/p.F.func2.1.3":                  "m/p.F",
		"m/p.(*T).M.func2.deferwrap1":      "m/p.(*T).M",
		"m/p.(*T).M.gowrap1":               "m/p.(*T).M",
		"m/p.F-range1":                     "m/p.F",
		"m/p.(*T).M-fm":                    "m/p.(*T).M",
		"m/p.grow[go.shape.int64]":         "m/p.grow",
		"m/p.(*Set[go.shape.[]uint8]).Add": "m/p.(*Set).Add",
		"m/p.Map[go.shape.int,go.shape.string].func1": "m/p.Map",
		"m/p.T.String": "m/p.T.String",
	} {
		if got := fold(sym); got != want {
			t.Errorf("fold(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestSymbol(t *testing.T) {
	src := `package p
func F() {}
func G[T any](x T) {}
func (T) M() {}
func (*T) N() {}
func (s *Set[K]) Add(k K) {}
func (m Map[K, V]) Get(k K) V { var v V; return v }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbol("m/p", d.(*ast.FuncDecl)))
	}
	want := "m/p.F m/p.G m/p.T.M m/p.(*T).N m/p.(*Set).Add m/p.Map.Get"
	if strings.Join(got, " ") != want {
		t.Errorf("symbols %v, want %s", got, want)
	}
}

func TestDeclaredSkipsTestsAndInit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a/a.go", "package a\nfunc init() {}\nfunc A() {}\n")
	write("a/a_test.go", "package a\nfunc helper() {}\n")
	t.Chdir(dir)
	decls, err := declared("m", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 1 || decls["m/a.A"] == "" {
		t.Errorf("declared = %v, want only m/a.A", decls)
	}
}

// TestDeclaredVariables checks that package-level variables are
// declared symbols, named as the linker names their data, and that
// blank ones, constants and function-local variables are not.
func TestDeclaredVariables(t *testing.T) {
	dir := t.TempDir()
	src := "package v\nvar V, _ = 1, 2\nvar (\n\tw int\n\tx, y = 3, 4\n)\nconst C = 5\nfunc F() { var local int; _ = local }\n"
	if err := os.MkdirAll(filepath.Join(dir, "v"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v", "v.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	decls, err := declared("m", "v")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sym := range decls {
		got = append(got, sym)
	}
	sort.Strings(got)
	if want := "m/v.F m/v.V m/v.w m/v.x m/v.y"; strings.Join(got, " ") != want {
		t.Errorf("declared %v, want %s", got, want)
	}
	if pos := decls["m/v.w"]; !strings.HasSuffix(pos, "v.go:4:2") {
		t.Errorf("m/v.w declared at %q, want v/v.go:4:2", pos)
	}
}

func TestReadAllow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow")
	for src, ok := range map[string]bool{
		"# header\n\nm/p.F # seam\n": true,
		"m/p.F\n":                    false, // no reason
		"m/p.F #   \n":               false, // empty reason
		"m/p.F # a\nm/p.F # b\n":     false, // listed twice
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		allow, err := readAllow(path)
		if (err == nil) != ok {
			t.Errorf("%q: err = %v", src, err)
		}
		if ok && allow["m/p.F"] != (allowed{line: 3}) {
			t.Errorf("%q: m/p.F = %+v, want line 3 in the test-seam section", src, allow["m/p.F"])
		}
	}
}

func TestReadAllowSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow")
	src := "m/p.Seam # test seam\n\n[evaluation-only]\n# header\nm/p.Eval # only sbmpart-eval calls it\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := (allowed{1, false}); allow["m/p.Seam"] != want {
		t.Errorf("m/p.Seam = %+v, want %+v", allow["m/p.Seam"], want)
	}
	if want := (allowed{5, true}); allow["m/p.Eval"] != want {
		t.Errorf("m/p.Eval = %+v, want %+v", allow["m/p.Eval"], want)
	}
}

// TestFindingsTiers checks the two tiers: a symbol no entry point
// links belongs in the test-seam section, one only evaluation entry
// points link in the evaluation-only section, and a line in the wrong
// section, or for a symbol the product links, is a finding; internal/exp
// is evaluation code and skips the second tier.
func TestFindingsTiers(t *testing.T) {
	decls := map[string]string{}
	for _, s := range []string{"Product", "Eval", "Seam", "NewEval", "NewSeam", "ListedProduct", "SeamAsEval", "EvalAsSeam"} {
		decls["m/p."+s] = "p.go:1:1"
	}
	linked := map[string]bool{"m/p.Product": true, "m/p.Eval": true, "m/p.NewEval": true, "m/p.ListedProduct": true, "m/p.EvalAsSeam": true}
	product := map[string]bool{"m/p.Product": true, "m/p.ListedProduct": true}
	allow := map[string]allowed{
		"m/p.Seam":          {1, false},
		"m/p.Eval":          {2, true},
		"m/p.ListedProduct": {3, true},
		"m/p.SeamAsEval":    {4, true},
		"m/p.EvalAsSeam":    {5, false},
		"m/p.Gone":          {6, true},
	}
	// internal/exp is evaluation code: linked only by evaluation entry
	// points, it needs no line, and a line for it is a finding.
	decls["m/internal/exp.Run"], decls["m/internal/exp.(*Panel).Label"] = "exp.go:1:1", "exp.go:2:1"
	linked["m/internal/exp.Run"], linked["m/internal/exp.(*Panel).Label"] = true, true
	allow["m/internal/exp.(*Panel).Label"] = allowed{7, true}
	got := strings.Join(findings(decls, linked, product, allow), "\n")
	for _, want := range []string{
		"p.go:1:1: m/p.NewEval is linked only by evaluation entry points",
		"p.go:1:1: m/p.NewSeam is linked into no entry point",
		allowPath + ":3: m/p.ListedProduct is allowlisted but the product links it",
		allowPath + ":4: m/p.SeamAsEval is allowlisted as evaluation-only but no entry point links it",
		allowPath + ":5: m/p.EvalAsSeam is allowlisted as a test seam but evaluation entry points link it",
		allowPath + ":6: m/p.Gone is allowlisted but not declared",
		allowPath + ":7: m/internal/exp.(*Panel).Label is allowlisted as evaluation-only but its package is evaluation code",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("findings lack %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n") + 1; n != 7 {
		t.Errorf("%d findings, want 7:\n%s", n, got)
	}
}
