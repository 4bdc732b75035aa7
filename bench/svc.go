package main

import (
	"bufio"
	"context"
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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// daemon is one datasynthd child, started with default flags plus the
// listen address, cache directory, cache bound and a disabled scenario
// registry, on one core (see oneCore).
type daemon struct {
	cmd      *exec.Cmd
	base     string
	logPath  string
	startupS float64
}

// startDaemon launches datasynthd on a free loopback port and returns
// once /v1/readyz answers 200.
func startDaemon(ctx context.Context, h *harness, dir string, cacheMaxBytes int64) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{base: "http://" + addr, logPath: filepath.Join(dir, "datasynthd.log")}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	d.cmd = exec.CommandContext(ctx, h.daemon,
		"-listen", addr,
		"-cache", filepath.Join(dir, "cache"),
		"-cachemaxbytes", strconv.FormatInt(cacheMaxBytes, 10),
		"-scenariodir", "")
	d.cmd.Env = append(os.Environ(), oneCore...)
	d.cmd.Stderr = logFile
	// On cancellation ask for the graceful drain first; WaitDelay kills
	// a daemon that does not finish it.
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = 10 * time.Second

	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := start.Add(15 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("datasynthd not ready after %v: %s", time.Since(start).Round(time.Millisecond), d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.startupS = time.Since(start).Seconds()
	return d, nil
}

// stop asks the daemon to drain and waits until the process has ended.
func (d *daemon) stop() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.logPath)
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return strings.TrimSpace(string(raw))
}

// cpuSeconds reads the daemon's user and system CPU time from
// /proc/<pid>/stat; the fields are counted after the parenthesised
// command name, which may itself contain spaces.
func (d *daemon) cpuSeconds() (user, sys float64) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0
	}
	return parseProcStat(string(raw))
}

func parseProcStat(stat string) (user, sys float64) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0
	}
	f := strings.Fields(stat[i+1:])
	// After the command name: state is field 0, utime 11, stime 12.
	if len(f) < 13 {
		return 0, 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	stt, _ := strconv.ParseFloat(f[12], 64)
	return ut / clockTick, stt / clockTick
}

// peakRSSMB reads the daemon's resident high-water mark (VmHWM).
func (d *daemon) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// jobView is the part of datasynthd's job JSON the harness reads.
type jobView struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	CacheHit bool           `json:"cache_hit"`
	Error    string         `json:"error"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started"`
	Finished *time.Time     `json:"finished"`
	Nodes    int64          `json:"nodes"`
	Edges    int64          `json:"edges"`
	Files    []manifestFile `json:"files"`
}

type manifestFile struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// svcRunner drives datasynthd over HTTP: submit, long-poll, download
// every table.
type svcRunner struct {
	ctx  context.Context
	h    *harness
	w    workload
	seed uint64

	dir    string
	d      *daemon
	client *http.Client
	// readBuf is the one connection's download buffer.
	readBuf []byte
	size    datasetCounts
	// startupS collects the daemon start time of every set-up.
	startupS []float64
	// pastPeakMB is the VmHWM of every daemon already torn down.
	pastPeakMB []float64
	// promBefore and promAfter are /v1/metrics at the two ends of the
	// measured window.
	promBefore, promAfter map[string]float64
	promErr               error

	attempted, failed int
	verifyS           float64
}

func newSvcRunner(ctx context.Context, h *harness, w workload, seed uint64) *svcRunner {
	return &svcRunner{ctx: ctx, h: h, w: w, seed: seed, readBuf: make([]byte, 1<<20), client: &http.Client{
		Transport: &http.Transport{DisableCompression: true},
	}}
}

func (r *svcRunner) setUp() (time.Duration, error) {
	win := startWindow(nil)
	r.dir = filepath.Join(r.h.scratch, r.w.name)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return 0, err
	}
	d, err := startDaemon(r.ctx, r.h, r.dir, r.w.cacheMaxBytes[r.h.size])
	if err != nil {
		return 0, err
	}
	r.d = d
	r.startupS = append(r.startupS, d.startupS)
	// A cold workload's set-up jobs are its warm-ups; a warm one first
	// primes each seed of its working set (a miss), then warms up on
	// hits.
	for i := 0; i < r.firstJob(); i++ {
		st := r.job(i)
		win.pause(func() { r.verify(&st) })
		if st.err != nil {
			return 0, fmt.Errorf("set-up job %d: %w", i, st.err)
		}
	}
	return win.elapsed(), nil
}

func (r *svcRunner) tearDown() {
	if r.d != nil {
		r.pastPeakMB = append(r.pastPeakMB, r.d.peakRSSMB())
		r.d.stop()
		r.d = nil
	}
	r.client.CloseIdleConnections()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *svcRunner) firstJob() int { return r.w.workingSet + r.w.warmups }

func (r *svcRunner) job(i int) jobStat {
	st := jobStat{index: i}
	text, err := r.w.schemaText(r.h.size, r.w.jobSeed(r.seed, i))
	if err == nil {
		st.start = time.Now()
		err = r.runJob(&st, text)
		st.wall = time.Since(st.start)
	}
	r.attempted++
	if err != nil {
		st.err = err
		r.failed++
	}
	return st
}

// runJob is the timed part of a job. Every download checks the status,
// the byte count and the ETag against the manifest as it goes.
func (r *svcRunner) runJob(st *jobStat, text string) error {
	view, err := r.submit(text)
	st.submit = time.Since(st.start)
	if err != nil {
		return err
	}
	st.cacheHit = view.CacheHit
	if view.Status != "done" {
		t0 := time.Now()
		view, err = r.getJob(view.ID, "?wait=120s")
		st.wait = time.Since(t0)
		if err != nil {
			return err
		}
	}
	st.view = view
	if view.Status != "done" {
		return fmt.Errorf("job %s is %s: %s", view.ID, view.Status, view.Error)
	}
	t0 := time.Now()
	for _, f := range view.Files {
		ts := tableStat{name: f.Name, start: time.Now()}
		if err := r.download(view.ID, f, false); err != nil {
			return err
		}
		ts.end = time.Now()
		st.tables = append(st.tables, ts)
		st.bytes += f.Bytes
	}
	st.serve = time.Since(t0)
	st.nodes, st.edges = view.Nodes, view.Edges
	return nil
}

func (r *svcRunner) submit(text string) (*jobView, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost,
		r.d.base+"/v1/jobs?format="+r.w.format, strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	return r.doJSON(req)
}

func (r *svcRunner) getJob(id, query string) (*jobView, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.d.base+"/v1/jobs/"+id+query, nil)
	if err != nil {
		return nil, err
	}
	return r.doJSON(req)
}

func (r *svcRunner) doJSON(req *http.Request) (*jobView, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return &v, nil
}

// download streams one table and checks it against the manifest: the
// byte count and ETag always, the SHA-256 of the body when hash is set.
func (r *svcRunner) download(id string, f manifestFile, hash bool) error {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.d.base+"/v1/jobs/"+id+"/tables/"+f.Name, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: HTTP %d: %s", f.Name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// The client should cost the daemon's cores as little as it can:
	// io.Copy to io.Discard reads 8 KiB at a time, 6500 syscalls for a
	// 52 MB table; a 1 MiB buffer takes them in a few dozen.
	sum := sha256.New()
	var n int64
	for {
		got, err := resp.Body.Read(r.readBuf)
		n += int64(got)
		if hash {
			sum.Write(r.readBuf[:got])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("GET %s: %w", f.Name, err)
		}
	}
	if n != f.Bytes {
		return fmt.Errorf("GET %s: %d bytes, manifest says %d", f.Name, n, f.Bytes)
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+f.SHA256+`"` {
		return fmt.Errorf("GET %s: ETag %s, manifest says %q", f.Name, etag, f.SHA256)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); hash && got != f.SHA256 {
		return fmt.Errorf("GET %s: body hashes to %s, manifest says %s", f.Name, got, f.SHA256)
	}
	return nil
}

// verify downloads the job's tables again, off the clock, hashing the
// bodies against the manifest.
func (r *svcRunner) verify(st *jobStat) {
	if st.err != nil {
		return
	}
	start := time.Now()
	var err error
	for _, f := range st.view.Files {
		if err = r.download(st.view.ID, f, true); err != nil {
			break
		}
	}
	if len(st.view.Files) == 0 {
		err = errors.New("job finished with no files")
	}
	r.verifyS += time.Since(start).Seconds()
	if err != nil {
		st.err = err
		r.failed++
		return
	}
	r.size = datasetCounts{Nodes: st.nodes, Edges: st.edges, Bytes: st.bytes}
}

// finish hashes the warm workload's whole working set once more; the
// cold workload has verified every job already.
func (r *svcRunner) finish() error {
	if r.promErr == nil {
		r.promAfter, r.promErr = r.scrape()
	}
	if r.w.kind != kindSvcWarm {
		return nil
	}
	for k := 0; k < r.w.workingSet; k++ {
		st := r.job(k)
		r.verify(&st)
		if st.err != nil {
			return fmt.Errorf("final pass over the working set, seed %d: %w", r.w.jobSeed(r.seed, k), st.err)
		}
	}
	return nil
}

// beginWindow scrapes the daemon's counters so that finish can report
// what the window alone added to them.
func (r *svcRunner) beginWindow() cpuClock {
	r.promBefore, r.promErr = r.scrape()
	return r.d.cpuSeconds
}

func (r *svcRunner) counts() datasetCounts { return r.size }

func (r *svcRunner) tally() (int, int, float64) { return r.attempted, r.failed, r.verifyS }

// peakRSSMB is the median VmHWM of the run's daemons: the earlier
// set-ups' at their end, the measured one's at the end of the window. A
// daemon's high-water mark settles within its first few jobs (89-91 MB
// on svc-cold-jsonl) but one late GC cycle can lift a single daemon to
// 110 MB; the median of three does not follow it.
func (r *svcRunner) peakRSSMB([]jobStat) float64 {
	return median(append([]float64{r.d.peakRSSMB()}, r.pastPeakMB...))
}

// scrape reads /v1/metrics into sample name (with labels) → value.
func (r *svcRunner) scrape() (map[string]float64, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.d.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	return parsePromText(resp.Body)
}

// parsePromText parses the Prometheus text exposition format into
// `name{labels}` → value, labels kept verbatim as the exporter wrote
// them. Comment lines are skipped; a trailing timestamp is ignored.
func parsePromText(rd io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The sample name ends at the closing brace when there are
		// labels (label values may hold spaces), else at the first space.
		end := strings.IndexByte(line, ' ')
		if brace := strings.IndexByte(line, '{'); brace >= 0 && (end < 0 || brace < end) {
			closing := strings.LastIndexByte(line, '}')
			if closing < 0 {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			end = closing + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}
