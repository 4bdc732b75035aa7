package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// The tests drive the built binary: the report on stdout and the exit
// codes are the command's contract.

var graphstatsBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphstats-cmd-test")
	if err != nil {
		panic(err)
	}
	graphstatsBin = filepath.Join(dir, "graphstats")
	if out, err := exec.Command("go", "build", "-o", graphstatsBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns its exit code and streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(graphstatsBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("graphstats %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

const socialSchema = `graph social {
  seed = 3
  node Person {
    count = 2500
    property country : string = categorical(dict="countries")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=12, maxDegree=40, mu=0.1)
    correlate country homophily 0.8
  }
}
`

// exportSocial writes socialSchema in every format, one directory each.
func exportSocial(t *testing.T) map[table.Format]string {
	t.Helper()
	s, err := dsl.Parse(socialSchema)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[table.Format]string{}
	for _, f := range []table.Format{table.FormatCSV, table.FormatColumnar, table.FormatJSONL} {
		dirs[f] = filepath.Join(t.TempDir(), f.String())
		if _, err := d.Export(dirs[f], table.ExportOptions{Format: f}); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// TestReportSameFromCSVAndColumnar: the two supported formats of one
// dataset give one report, label metrics included.
func TestReportSameFromCSVAndColumnar(t *testing.T) {
	dirs := exportSocial(t)
	report := func(f table.Format) string {
		code, stdout, stderr := run(t,
			"-edges", filepath.Join(dirs[f], table.EdgeFileName("knows", f)),
			"-labels", filepath.Join(dirs[f], table.NodeFileName("Person", f)), "-labelcol", "country")
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", f, code, stderr)
		}
		return stdout
	}
	csv, columnar := report(table.FormatCSV), report(table.FormatColumnar)
	if csv != columnar {
		t.Errorf("reports differ:\n-- csv --\n%s-- columnar --\n%s", csv, columnar)
	}
	for _, want := range []string{"nodes:                 2500\n", "label values:", "same-label edge mass:"} {
		if !strings.Contains(csv, want) {
			t.Errorf("report lacks %q:\n%s", want, csv)
		}
	}
}

// TestInputErrors: a file that is neither .csv nor .dsc is refused
// naming the two, -labels and -labelcol only come together, and no
// -edges at all is a usage error.
func TestInputErrors(t *testing.T) {
	dirs := exportSocial(t)
	edges := filepath.Join(dirs[table.FormatCSV], "edges_knows.csv")
	nodes := filepath.Join(dirs[table.FormatCSV], "nodes_Person.csv")
	jsonl := filepath.Join(dirs[table.FormatJSONL], "edges_knows.jsonl")

	code, stdout, stderr := run(t, "-edges", jsonl)
	if code != 1 || stdout != "" || !strings.Contains(stderr, ".csv") || !strings.Contains(stderr, ".dsc") || strings.Contains(stderr, "parse error") {
		t.Errorf("-edges %s: exit %d, stdout %q, stderr %q; want 1 naming .csv and .dsc", jsonl, code, stdout, stderr)
	}
	code, _, stderr = run(t, "-edges", edges, "-labels", filepath.Join(dirs[table.FormatJSONL], "nodes_Person.jsonl"), "-labelcol", "country")
	if code != 1 || !strings.Contains(stderr, ".csv") || !strings.Contains(stderr, ".dsc") {
		t.Errorf("-labels nodes_Person.jsonl: exit %d, stderr %q; want 1 naming .csv and .dsc", code, stderr)
	}
	for _, args := range [][]string{
		{"-edges", edges, "-labels", nodes},
		{"-edges", edges, "-labelcol", "country"},
		{},
	} {
		if code, stdout, _ := run(t, args...); code != 2 || stdout != "" {
			t.Errorf("graphstats %v: exit %d, stdout %q; want a usage error, 2", args, code, stdout)
		}
	}
}
