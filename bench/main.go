// Command bench is the repository's benchmark: one harness process
// that drives the two paths a user pays for — `datasynth` schema text →
// committed files, and `datasynthd` HTTP submit → last byte downloaded —
// as child processes built from the tree and run with default flags,
// verifies every output, and prints each metric by name with its unit.
//
//	go run -C bench . --workload cli-social-csv --seed 1 --seconds 20 --trace 0
//	go run -C bench . --workload svc-cold-jsonl --trace 1   # per-layer run
//	go run -C bench . -aa                                   # same code twice
//
// README.md has the workloads, the metric glossary and the noise rules.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/table"
)

// spinSink keeps the spin loop's arithmetic observable.
var spinSink atomic.Uint64

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run records about itself, printed before the
// result line: the resolved configuration, the environment and the
// numbers behind the metrics.
type report struct {
	Workload  string        `json:"workload"`
	Mode      string        `json:"mode"`
	Seed      uint64        `json:"seed"`
	Size      string        `json:"size"`
	Seconds   float64       `json:"seconds"`
	Env       environment   `json:"environment"`
	Counts    datasetCounts `json:"resolved_counts"`
	Reference string        `json:"reference,omitempty"`

	MeasuredJobs int     `json:"measured_jobs,omitempty"`
	WindowS      float64 `json:"window_s,omitempty"`
	// JobS is the measured jobs' wall time at the 0th, 10th, 50th, 90th
	// and 100th percentile: the spread behind job_s_p50.
	JobS          []float64 `json:"job_s_min_p10_p50_p90_max,omitempty"`
	SetupS        []float64 `json:"setup_s_each,omitempty"`
	JobsAttempted int       `json:"jobs_attempted"`
	JobsFailed    int       `json:"jobs_failed"`
	FailedShare   float64   `json:"failed_share"`
	Failures      []string  `json:"failures,omitempty"`

	BuildS  float64 `json:"harness.build_s"`
	SpinupS float64 `json:"harness.spinup_s"`
	VerifyS float64 `json:"harness.verify_s"`

	TraceFile string `json:"trace_file,omitempty"`
	Spans     int    `json:"spans,omitempty"`

	Metrics map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same schemas")
	secs := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	size := fs.String("size", "full", "full, or small for the smoke test's 2000-Person-class schemas")
	aa := fs.Bool("aa", false, "run each workload twice on the same binaries and compare against the bounds in BENCHMARK.json")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden.json (CLI file hashes, matcher fidelity) at seed 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "small") || *secs <= 0 {
		fmt.Fprintln(stderr, "bench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [-size full|small] [-aa] [-update-golden]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}

	h, err := newHarness(ctx, *size)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer h.close()
	d := time.Duration(*secs * float64(time.Second))

	switch {
	case *updateGolden:
		err = writeGolden(ctx, h, selected)
	case *aa:
		var ok bool
		if ok, err = runAA(ctx, h, selected, *seed, d, stdout); err == nil && !ok {
			return 1
		}
	default:
		for _, w := range selected {
			var rep *report
			if *trace == 1 {
				rep, err = traceReport(ctx, h, w, *seed, d)
			} else {
				rep, err = endToEndReport(ctx, h, w, *seed, d)
			}
			if err != nil {
				break
			}
			printReport(stdout, rep)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// newReport starts a run: it reads the environment while the host's
// load average is still its own, then spins the cores up.
func (h *harness) newReport(w workload, mode string, seed uint64, d time.Duration) *report {
	return &report{
		Workload: w.name, Mode: mode, Seed: seed, Size: h.size, Seconds: d.Seconds(),
		Env: h.readEnvironment(), BuildS: h.buildS, SpinupS: h.spin(),
	}
}

func (rep *report) setJobs(attempted, failed int, failures []string) {
	rep.JobsAttempted, rep.JobsFailed, rep.Failures = attempted, failed, failures
	if attempted > 0 {
		rep.FailedShare = float64(failed) / float64(attempted)
	}
}

// endToEndReport runs one workload with tracing off.
func endToEndReport(ctx context.Context, h *harness, w workload, seed uint64, d time.Duration) (*report, error) {
	rep := h.newReport(w, "end-to-end", seed, d)
	var r runner
	if w.kind == kindCLI {
		cli := newCLIRunner(ctx, h, w, seed)
		defer func() { rep.Reference = cli.refSource }()
		r = cli
	} else {
		r = newSvcRunner(ctx, h, w, seed)
	}
	m, err := measure(ctx, r, w, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.Counts, rep.MeasuredJobs = m.counts, len(m.jobs)
	rep.WindowS, rep.SetupS, rep.VerifyS = m.windowS, m.setupS, m.verifyS
	rep.setJobs(m.attempted, m.failed, m.failures)
	rep.Metrics = m.endToEnd()
	walls := m.walls()
	for _, p := range []float64{0, 10, 50, 90, 100} {
		rep.JobS = append(rep.JobS, percentile(walls, p))
	}
	return rep, nil
}

// traceReport runs one workload's traced per-layer run.
func traceReport(ctx context.Context, h *harness, w workload, seed uint64, d time.Duration) (*report, error) {
	rep := h.newReport(w, "trace", seed, d)
	res, err := runTrace(ctx, h, w, seed, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.Counts, rep.TraceFile, rep.Spans = res.counts, res.tracePath, res.spans
	rep.VerifyS = res.metrics["harness.verify_s"].Value
	rep.setJobs(res.attempted, res.failed, res.failures)
	rep.Metrics = res.metrics
	rep.Metrics["harness.spinup_s"] = metric{rep.SpinupS, "s"}
	return rep, nil
}

// printReport writes the run's record, then the result line the driver
// reads.
func printReport(w io.Writer, rep *report) {
	pretty, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Fprintf(w, "%s\n", pretty)
	line, _ := json.Marshal(result{
		Correct:   rep.JobsFailed == 0,
		Attempted: rep.JobsAttempted,
		Failed:    rep.JobsFailed,
		Metrics:   rep.Metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// runAA runs every selected workload twice on the same binaries and
// prints, per end-to-end metric, both values and how far the second is
// from the first. It reports false when any difference exceeds the
// metric's bound in BENCHMARK.json, or when a job failed.
func runAA(ctx context.Context, h *harness, selected []workload, seed uint64, d time.Duration, out io.Writer) (bool, error) {
	bf, err := readBenchmarkFile(h.root)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-18s %-14s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range selected {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = endToEndReport(ctx, h, w, seed, d); err != nil {
				return false, err
			}
			if reps[i].JobsFailed > 0 {
				ok = false
				fmt.Fprintf(out, "%-18s run %c: %d of %d jobs failed: %v\n", w.name, 'A'+i, reps[i].JobsFailed, reps[i].JobsAttempted, reps[i].Failures)
			}
		}
		for _, def := range bf.EndToEnd {
			a, b := reps[0].Metrics[def.Name].Value, reps[1].Metrics[def.Name].Value
			diff := relDiff(a, b)
			verdict := ""
			if diff > def.Bound {
				ok = false
				verdict = "  EXCEEDS"
			}
			fmt.Fprintf(out, "%-18s %-14s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", w.name, def.Name, a, b, 100*diff, 100*def.Bound, verdict)
		}
	}
	return ok, nil
}

// writeGolden records, at seed 1, the matcher's fidelity on each
// selected workload and the file hashes of one job of each CLI one.
func writeGolden(ctx context.Context, h *harness, selected []workload) error {
	if h.size != "full" {
		return fmt.Errorf("-update-golden needs -size full")
	}
	path := filepath.Join(h.root, "bench", goldenFile)
	g := golden{SchemaVersion: core.SchemaVersion, Workloads: map[string]goldenWorkload{}}
	// Records of workloads not selected now are kept while they are of
	// this schema version.
	for _, w := range workloads {
		if gw, ok := h.readGolden(w.name); ok {
			g.Workloads[w.name] = gw
		}
	}
	for _, w := range selected {
		var gw goldenWorkload
		text, err := w.schemaText(h.size, w.jobSeed(1, 0))
		if err != nil {
			return err
		}
		format, err := table.ParseFormat(w.format)
		if err != nil {
			return err
		}
		dir := filepath.Join(h.scratch, w.name+"-golden")
		p, err := runPipeline(ctx, nil, nil, "", text, format, dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fid, err := runLayers(nil, samples{}, "", p, dir)
		os.RemoveAll(dir)
		if err != nil || fid == nil {
			return fmt.Errorf("%s: no fidelity to record: %v", w.name, err)
		}
		gw.L1, gw.HomophilyObs = fid.l1, fid.homophilyObs
		if w.kind == kindCLI {
			r := newCLIRunner(ctx, h, w, 1)
			r.ref = nil // record this job's hashes, do not compare them
			if err := r.prepare(); err != nil {
				return err
			}
			st := r.job(0)
			r.verify(&st)
			r.tearDown()
			if st.err != nil {
				return fmt.Errorf("%s: %w", w.name, st.err)
			}
			gw.Files = r.ref
		}
		g.Workloads[w.name] = gw
	}
	names := make([]string, 0, len(g.Workloads))
	for name := range g.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s for %v at schema version %d\n", path, names, g.SchemaVersion)
	return nil
}
