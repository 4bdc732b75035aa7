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
)

// The tests drive the built binary: exit codes and the two output
// streams are the command's contract, and neither is reachable by
// calling main's pieces.

var datasynthBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "datasynth-cmd-test")
	if err != nil {
		panic(err)
	}
	datasynthBin = filepath.Join(dir, "datasynth")
	if out, err := exec.Command("go", "build", "-o", datasynthBin, ".").CombinedOutput(); err != nil {
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
	cmd := exec.Command(datasynthBin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("datasynth %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

func writeSchema(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.dsl")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recommender is a small user–product schema; structure is the spec of
// its one edge type.
func recommender(structure string) string {
	return `graph rec {
  seed = 5
  node User {
    count = 400
    property segment : string = categorical(values="a|b|c")
  }
  node Product {
    count = 60
    property category : string = categorical(values="x|y|z")
  }
  edge rates : User *-* Product {
    structure = ` + structure + `
    correlate tail.segment with head.category homophily 0.7
  }
}
`
}

// TestValidateExitCodes: -validate answers 0 with the canonical hash
// the service would cache under, 1 on a schema that cannot generate —
// naming the edge and its structure generator — and an unknown flag is
// a usage error, 2.
func TestValidateExitCodes(t *testing.T) {
	// The starter schema -example prints must itself validate.
	code, example, _ := run(t, "-example")
	if code != 0 || !strings.Contains(example, "graph ") {
		t.Fatalf("-example: exit %d, output %q", code, example)
	}
	s, err := dsl.Parse(example)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run(t, "-validate", "-schema", writeSchema(t, example))
	if code != 0 || !strings.Contains(stdout, ": valid (") || !strings.Contains(stdout, "canonical sha256: "+core.CanonicalHash(s)+"\n") {
		t.Errorf("-validate on the example schema: exit %d, stdout %q, stderr %q; want 0 and its canonical hash %s", code, stdout, stderr, core.CanonicalHash(s))
	}

	for _, c := range []struct{ structure, want string }{
		{`nosuchgen(min=1)`, `"nosuchgen"`},
		{`zipf-attachment(theta=-1)`, "zipf-attachment needs theta > 0"},
		{`zipf-attachment(min=9, max=3)`, "zipf-attachment needs min <= max"},
		{`zipf-attachment(bogus=3, min=1, max=4)`, "zipf-attachment has no parameter bogus"},
	} {
		path := writeSchema(t, recommender(c.structure))
		code, stdout, stderr := run(t, "-validate", "-schema", path)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "edge rates") || !strings.Contains(stderr, c.want) {
			t.Errorf("-validate %s: exit %d, stdout %q, stderr %q; want 1 naming edge rates and %q", c.structure, code, stdout, stderr, c.want)
		}
		// Generating refuses it just as early: no output directory.
		out := filepath.Join(t.TempDir(), "out")
		if code, _, _ := run(t, "-schema", path, "-out", out); code != 1 {
			t.Errorf("generating %s: exit %d, want 1", c.structure, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("generating %s left %s behind (%v)", c.structure, out, err)
		}
	}

	// A property generator refuses a misspelt parameter as a structure
	// generator does, instead of drawing from the default range.
	misspelt := writeSchema(t, "graph g {\n  seed = 1\n  node A {\n    count = 10\n    property y : int = uniform-int(low=5, hi=10)\n  }\n}\n")
	if code, stdout, stderr := run(t, "-validate", "-schema", misspelt); code != 1 || stdout != "" || !strings.Contains(stderr, "A.y") || !strings.Contains(stderr, "uniform-int has no parameter low") {
		t.Errorf("-validate uniform-int(low=5, hi=10): exit %d, stdout %q, stderr %q; want 1 naming A.y and low", code, stdout, stderr)
	}

	// -window went with the windowed-matcher knobs, -exportworkers
	// with Engine.ExportWorkers, -workers with the last worker bound
	// (GOMAXPROCS is the only one) and -jsonl, which only repeated
	// -format jsonl; a removed flag is a usage error, not something
	// silently accepted.
	for _, removed := range [][]string{{"-window", "64"}, {"-exportworkers", "2"}, {"-workers", "2"}, {"-jsonl"}} {
		code, _, stderr := run(t, append(removed, "-validate", "-schema", writeSchema(t, example))...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+removed[0]) {
			t.Errorf("%s: exit %d, stderr %q; want 2 naming the flag", strings.Join(removed, " "), code, stderr)
		}
	}
}

// TestValidateNodeCountBound: a node type declaring more instances than
// a uint32 endpoint id addresses is refused by -validate and by a
// generating run alike, naming the type, before any output exists.
func TestValidateNodeCountBound(t *testing.T) {
	path := writeSchema(t, strings.Replace(recommender(`zipf-attachment()`), "count = 400", "count = 4294967296", 1))
	code, stdout, stderr := run(t, "-validate", "-schema", path)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "node type User has 4294967296 nodes") {
		t.Errorf("-validate: exit %d, stdout %q, stderr %q; want 1 naming node type User's count", code, stdout, stderr)
	}
	out := filepath.Join(t.TempDir(), "out")
	if code, _, _ := run(t, "-schema", path, "-out", out); code != 1 {
		t.Errorf("generating: exit %d, want 1", code)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("generating left %s behind (%v)", out, err)
	}
}

// TestTimingsShowStructureNote: the -timings report carries the
// structure generator's telemetry on its task row.
func TestTimingsShowStructureNote(t *testing.T) {
	path := writeSchema(t, recommender(`zipf-attachment(min=1, max=6, gamma=1.8, theta=1.1)`))
	code, _, stderr := run(t, "-schema", path, "-out", filepath.Join(t.TempDir(), "out"), "-timings")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, "S:rates") {
			if !strings.Contains(line, "[zipf-attachment ") || !strings.Contains(line, " draws, ") || !strings.Contains(line, " ranks memoised]") {
				t.Errorf("S:rates row carries no zipf-attachment note: %q", line)
			}
			return
		}
	}
	t.Errorf("no S:rates row in the timing report:\n%s", stderr)
}
