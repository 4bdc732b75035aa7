package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/table"
)

// goldenFile pins the CLI workloads' output bytes at the default seed.
const goldenFile = "golden.json"

// golden pins what the program produces at -seed 1, -size full. It is
// compared only while the tree's core.SchemaVersion equals the recorded
// one: a change that moves the bytes on purpose bumps that version, and
// from then on CLI jobs are checked against the run's first job, and
// fidelity is not checked, until -update-golden is rerun.
type golden struct {
	SchemaVersion int                       `json:"schema_version"`
	Workloads     map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	// Files is the SHA-256 of every file of one job (CLI workloads).
	Files map[string]string `json:"files,omitempty"`
	// L1 and HomophilyObs are the matcher's fidelity on the workload's
	// correlated edge type: the L1 distance between the target and the
	// realised joint (monopartite only), and the realised same-label
	// edge fraction.
	L1           float64 `json:"match_l1"`
	HomophilyObs float64 `json:"match_homophily_obs"`
}

// readGolden returns the record for one workload, or false when the
// file is missing, was written under another schema version, or the
// run is not at full size.
func (h *harness) readGolden(name string) (goldenWorkload, bool) {
	raw, err := os.ReadFile(filepath.Join(h.root, "bench", goldenFile))
	if err != nil {
		return goldenWorkload{}, false
	}
	var g golden
	if json.Unmarshal(raw, &g) != nil || g.SchemaVersion != core.SchemaVersion || h.size != "full" {
		return goldenWorkload{}, false
	}
	gw, ok := g.Workloads[name]
	return gw, ok
}

// cliRunner drives `datasynth -schema -out -format`, one child at a
// time, with default flags only and on one core (see oneCore).
type cliRunner struct {
	ctx  context.Context
	h    *harness
	w    workload
	seed uint64
	// env is appended to the child's environment: oneCore, except for
	// the all-cores half of the traced run's scaling measurement.
	env []string

	dir        string
	schemaPath string
	// ref is what every job's files must hash to: the golden record
	// when it applies, else the first job of the run.
	ref       map[string]string
	refSource string
	size      datasetCounts

	attempted, failed int
	verifyS           float64
}

func newCLIRunner(ctx context.Context, h *harness, w workload, seed uint64) *cliRunner {
	r := &cliRunner{ctx: ctx, h: h, w: w, seed: seed, env: oneCore, refSource: "first job of the run"}
	if gw, ok := h.readGolden(w.name); ok && seed == 1 && gw.Files != nil {
		r.ref, r.refSource = gw.Files, goldenFile
	}
	return r
}

// prepare makes the scratch directory and writes the schema file.
func (r *cliRunner) prepare() error {
	r.dir = filepath.Join(r.h.scratch, r.w.name+"-cli")
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	text, err := r.w.schemaText(r.h.size, r.w.jobSeed(r.seed, 0))
	if err != nil {
		return err
	}
	r.schemaPath = filepath.Join(r.dir, "schema.dsl")
	return os.WriteFile(r.schemaPath, []byte(text), 0o644)
}

func (r *cliRunner) setUp() (time.Duration, error) {
	win := startWindow(nil)
	if err := r.prepare(); err != nil {
		return 0, err
	}
	for i := 0; i < r.w.warmups; i++ {
		st := r.job(i)
		win.pause(func() { r.verify(&st) })
		if st.err != nil {
			return 0, fmt.Errorf("warm-up job %d: %w", i, st.err)
		}
	}
	return win.elapsed(), nil
}

func (r *cliRunner) tearDown() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *cliRunner) firstJob() int { return r.w.warmups }

func (r *cliRunner) outDir(i int) string { return filepath.Join(r.dir, fmt.Sprintf("out-%d", i)) }

func (r *cliRunner) job(i int) jobStat {
	st := jobStat{index: i}
	r.attempted++
	var stderr bytes.Buffer
	cmd := exec.CommandContext(r.ctx, r.h.datasynth, "-schema", r.schemaPath, "-out", r.outDir(i), "-format", r.w.format)
	cmd.Env = append(os.Environ(), r.env...)
	cmd.Stderr = &stderr
	st.start = time.Now()
	err := cmd.Run()
	st.wall = time.Since(st.start)
	if ps := cmd.ProcessState; ps != nil {
		st.userS = ps.UserTime().Seconds()
		st.sysS = ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		st.err = fmt.Errorf("datasynth: %w: %s", err, strings.TrimSpace(stderr.String()))
		r.failed++
	}
	return st
}

// verify hashes every file the job wrote against the reference, then
// removes the output directory.
func (r *cliRunner) verify(st *jobStat) {
	start := time.Now()
	defer func() { r.verifyS += time.Since(start).Seconds() }()
	dir := r.outDir(st.index)
	defer os.RemoveAll(dir)
	if st.err != nil {
		return
	}
	fail := func(err error) {
		st.err = err
		r.failed++
	}
	got, size, err := hashDir(dir)
	if err != nil {
		fail(err)
		return
	}
	if r.ref == nil {
		r.ref = got
	}
	if r.size == (datasetCounts{}) {
		if r.size, err = countDataset(dir, r.w.format); err != nil {
			fail(err)
			return
		}
		r.size.Bytes = size
	}
	if err := sameFiles(r.ref, got); err != nil {
		fail(fmt.Errorf("output differs from %s: %w", r.refSource, err))
		return
	}
	st.nodes, st.edges, st.bytes = r.size.Nodes, r.size.Edges, size
}

func (r *cliRunner) beginWindow() cpuClock      { return nil }
func (r *cliRunner) finish() error              { return nil }
func (r *cliRunner) counts() datasetCounts      { return r.size }
func (r *cliRunner) tally() (int, int, float64) { return r.attempted, r.failed, r.verifyS }

func (r *cliRunner) peakRSSMB(jobs []jobStat) float64 {
	var peak int64
	for i := range jobs {
		peak = max(peak, jobs[i].rssKB)
	}
	return float64(peak) / 1024
}

// hashDir returns file name → hex SHA-256 for every file in dir, and
// their total size.
func hashDir(dir string) (map[string]string, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	// Files hash side by side: verification is off the clock but not
	// off the run's time budget.
	type fileSum struct {
		sum  string
		size int64
		err  error
	}
	results := make([]fileSum, len(entries))
	var wg sync.WaitGroup
	for i, ent := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			f, err := os.Open(filepath.Join(dir, ent.Name()))
			if err != nil {
				res.err = err
				return
			}
			defer f.Close()
			h := sha256.New()
			res.size, res.err = io.Copy(h, f)
			res.sum = hex.EncodeToString(h.Sum(nil))
		}()
	}
	wg.Wait()
	sums := make(map[string]string, len(entries))
	var total int64
	for i, ent := range entries {
		if results[i].err != nil {
			return nil, 0, results[i].err
		}
		total += results[i].size
		sums[ent.Name()] = results[i].sum
	}
	return sums, total, nil
}

// sameFiles reports the first difference between two name → hash sets.
func sameFiles(want, got map[string]string) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch sum, ok := got[name]; {
		case !ok:
			return fmt.Errorf("missing file %s", name)
		case sum != want[name]:
			return fmt.Errorf("%s hashes to %s, want %s", name, sum, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("unexpected file %s", name)
		}
	}
	return nil
}

// countDataset resolves the node and edge counts of an exported
// directory from the files themselves: rows of the text formats, table
// headers of the columnar one.
func countDataset(dir, format string) (datasetCounts, error) {
	var c datasetCounts
	if format == "columnar" {
		d, err := table.OpenColumnar(dir)
		if err != nil {
			return c, err
		}
		return countsOf(d), nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return c, err
	}
	for _, ent := range entries {
		rows, err := countLines(filepath.Join(dir, ent.Name()))
		if err != nil {
			return c, err
		}
		if format == "csv" {
			rows-- // header
		}
		switch {
		case strings.HasPrefix(ent.Name(), "nodes_"):
			c.Nodes += rows
		case strings.HasPrefix(ent.Name(), "edges_"):
			c.Edges += rows
		}
	}
	return c, nil
}

// countsOf sums a dataset's node and edge counts.
func countsOf(d *table.Dataset) datasetCounts {
	var c datasetCounts
	for _, n := range d.NodeCounts {
		c.Nodes += n
	}
	for _, et := range d.Edges {
		c.Edges += et.Len()
	}
	return c
}

func countLines(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	var lines int64
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return 0, err
		}
	}
}
