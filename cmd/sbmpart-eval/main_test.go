package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests drive the built binary: exit codes and the files it leaves
// under -out are the command's contract.

var evalBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sbmpart-eval-cmd-test")
	if err != nil {
		panic(err)
	}
	evalBin = filepath.Join(dir, "sbmpart-eval")
	if out, err := exec.Command("go", "build", "-o", evalBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary in dir and returns its exit code and streams.
func run(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(evalBin, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("sbmpart-eval %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

// TestBipartiteWritesItsTSV: -bipartite runs its three panels, prints
// them and writes the same table under -out.
func TestBipartiteWritesItsTSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results")
	code, stdout, stderr := run(t, t.TempDir(), "-bipartite", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	tsv, err := os.ReadFile(filepath.Join(out, "bipartite.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(tsv)), "\n"); len(lines) != 4 || !strings.HasPrefix(lines[0], "panel\t") {
		t.Errorf("bipartite.tsv is not a header and three panels:\n%s", tsv)
	}
	if !strings.Contains(stdout, "ZIPF(40k,16x8)") {
		t.Errorf("stdout lacks the last panel:\n%s", stdout)
	}
}

// TestUsageErrors: no experiment selected is a usage error, and so is
// -workers, which went with the last worker bound.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{{}, {"-workers", "2", "-bipartite"}} {
		code, _, stderr := run(t, dir, args...)
		if code != 2 || !strings.Contains(stderr, "Usage of") || (len(args) > 0 && !strings.Contains(stderr, args[0])) {
			t.Errorf("sbmpart-eval %v: exit %d, stderr %q; want the usage text and 2", args, code, stderr)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a usage error left %d entries in the working directory", len(entries))
	}
}
