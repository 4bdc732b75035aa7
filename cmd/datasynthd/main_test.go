package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"datasynth/internal/store"
)

// The test drives the built binary: a SIGKILL mid-job, the restart's
// recovery sweep and the SIGTERM drain are properties of the process,
// which the in-process fault tests of internal/service can only
// simulate.

var datasynthdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "datasynthd-cmd-test")
	if err != nil {
		panic(err)
	}
	datasynthdBin = filepath.Join(dir, "datasynthd")
	if out, err := exec.Command("go", "build", "-o", datasynthdBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// crashSchema is big enough that its JSONL export and hash pass keep
// the staging directory on disk for tens of milliseconds — the window
// the test kills the daemon in.
const crashSchema = `graph social {
  seed = 19
  node Person {
    count = 40000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=20, maxDegree=50, mu=0.1)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate)
  }
}
`

// logBuffer collects the daemon's stderr; exec writes it from its own
// goroutine while failure messages may read it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *logBuffer
	exited chan error // receives cmd.Wait's result once
}

// startDaemon launches datasynthd on a free localhost port and waits
// until /v1/readyz answers 200.
func startDaemon(t *testing.T, cacheDir, scenarioDir string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{url: "http://" + addr, stderr: new(logBuffer), exited: make(chan error, 1)}
	d.cmd = exec.Command(datasynthdBin, "-listen", addr, "-cache", cacheDir, "-scenariodir", scenarioDir, "-v")
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() {
		d.cmd.Process.Kill() // no-op once the process has been waited for
	})

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			t.Fatalf("datasynthd exited during startup: %v\n%s", err, d.stderr)
		default:
		}
		if resp, err := http.Get(d.url + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("datasynthd never became ready\n%s", d.stderr)
	return nil
}

// stop signals the daemon and waits for it to exit.
func (d *daemon) stop(t *testing.T, sig syscall.Signal) error {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(60 * time.Second):
		t.Fatalf("datasynthd ignored %v\n%s", sig, d.stderr)
		return nil
	}
}

type jobView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
	Files    []struct {
		Name string `json:"name"`
	} `json:"files"`
}

func (d *daemon) do(t *testing.T, method, path, contentType, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, d.stderr)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw)
		}
	}
	return resp.StatusCode
}

// finish long-polls a job to its terminal state and returns the
// SHA-256 of every table as downloaded.
func (d *daemon) finish(t *testing.T, id string) map[string]string {
	t.Helper()
	var v jobView
	for deadline := time.Now().Add(2 * time.Minute); v.Status != "done"; {
		if code := d.do(t, "GET", "/v1/jobs/"+id+"?wait=30s", "", "", &v); code != http.StatusOK {
			t.Fatalf("job %s: status %d", id, code)
		}
		if v.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s is %s: %s\n%s", id, v.Status, v.Error, d.stderr)
		}
	}
	if v.Degraded || len(v.Files) == 0 {
		t.Fatalf("job %s done degraded=%v with %d files", id, v.Degraded, len(v.Files))
	}
	hashes := map[string]string{}
	for _, f := range v.Files {
		resp, err := http.Get(d.url + "/v1/jobs/" + id + "/tables/" + f.Name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		_, err = io.Copy(h, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("download %s: %d %v", f.Name, resp.StatusCode, err)
		}
		hashes[f.Name] = hex.EncodeToString(h.Sum(nil))
	}
	return hashes
}

func tempEntries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), store.TempPrefix) {
			temps = append(temps, de.Name())
		}
	}
	return temps
}

// TestKillRestartRecovers is the process-level crash test: SIGKILL the
// daemon while a job's entry is staged but not committed, restart it on
// the same cache and scenario directories, and require that the debris
// is out of the cache root, the registry still serves what it had
// acknowledged, and the resubmitted job produces the bytes a daemon
// that was never killed produces. SIGTERM then drains and exits 0.
func TestKillRestartRecovers(t *testing.T) {
	// The reference: a daemon nobody kills.
	ref := startDaemon(t, t.TempDir(), t.TempDir())
	var sub jobView
	if code := ref.do(t, "POST", "/v1/jobs?format=jsonl", "", crashSchema, &sub); code != http.StatusAccepted {
		t.Fatalf("reference submit: %d", code)
	}
	want := ref.finish(t, sub.ID)
	if err := ref.stop(t, syscall.SIGTERM); err != nil || !strings.Contains(ref.stderr.String(), "drained cleanly") {
		t.Fatalf("reference SIGTERM: exit %v\n%s", err, ref.stderr)
	}

	cacheDir, scenarioDir := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, cacheDir, scenarioDir)
	if code := d1.do(t, "PUT", "/v1/scenarios/crashy", "", crashSchema, nil); code != http.StatusCreated {
		t.Fatalf("scenario PUT: %d", code)
	}
	if code := d1.do(t, "POST", "/v1/jobs?format=jsonl", "", crashSchema, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Kill the moment the job's staging directory exists: the export is
	// running or done, the commit has not happened.
	for deadline := time.Now().Add(time.Minute); len(tempEntries(t, cacheDir)) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no staging directory ever appeared\n%s", d1.stderr)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d1.stop(t, syscall.SIGKILL); err == nil {
		t.Fatal("SIGKILL: datasynthd exited 0")
	}
	if len(tempEntries(t, cacheDir)) == 0 {
		t.Fatalf("the job committed before the kill landed; nothing to recover\n%s", d1.stderr)
	}

	d2 := startDaemon(t, cacheDir, scenarioDir)
	if left := tempEntries(t, cacheDir); len(left) != 0 {
		t.Fatalf("restart left %v in the cache root", left)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, store.QuarantineDir, store.TempPrefix+sub.ID)); err != nil {
		t.Fatalf("the staged entry was not quarantined: %v", err)
	}
	var stats struct {
		Cache struct {
			Entries     int   `json:"entries"`
			Quarantined int64 `json:"quarantined"`
		} `json:"cache"`
		Scenarios struct {
			Quarantined int64 `json:"quarantined"`
		} `json:"scenarios"`
	}
	d2.do(t, "GET", "/v1/stats", "", "", &stats)
	if stats.Cache.Entries != 0 || stats.Cache.Quarantined != 1 || stats.Scenarios.Quarantined != 0 {
		t.Fatalf("after restart: %+v", stats)
	}

	// Resubmit through the scenario the killed daemon had acknowledged:
	// same canonical text, so the same job id, regenerated from scratch.
	var re jobView
	body := fmt.Sprintf(`{"scenario": %q, "format": "jsonl"}`, "crashy")
	if code := d2.do(t, "POST", "/v1/jobs", "application/json", body, &re); code != http.StatusAccepted || re.ID != sub.ID || re.CacheHit {
		t.Fatalf("resubmit: %d id=%s (want %s) cache_hit=%v", code, re.ID, sub.ID, re.CacheHit)
	}
	got := d2.finish(t, re.ID)
	if len(got) != len(want) {
		t.Fatalf("resubmit served %d tables, reference %d", len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: %s after the crash, %s from a never-killed daemon", name, got[name], h)
		}
	}

	if err := d2.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: exit %v\n%s", err, d2.stderr)
	}
	if !strings.Contains(d2.stderr.String(), "drained cleanly") {
		t.Fatalf("SIGTERM did not drain cleanly:\n%s", d2.stderr)
	}
}

// TestRemovedWorkersFlag: -workers went with the last worker bound —
// the daemon's parallelism is GOMAXPROCS — and the store-retry, job-map
// and sweep-cap flags went with the settings no deployment changed. A
// removed flag is a usage error, not something silently accepted.
func TestRemovedWorkersFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "2"},
		{"-storeretries", "5"},
		{"-storeretrybase", "10ms"},
		{"-jobretention", "1h"},
		{"-maxjobs", "100"},
		{"-maxsweeppoints", "64"},
	} {
		out, err := exec.Command(datasynthdBin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("datasynthd %s: %v, output %q; want exit 2 naming the flag", strings.Join(args, " "), err, out)
		}
	}
}
