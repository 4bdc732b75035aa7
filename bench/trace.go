package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// The traced run times each layer from outside, through the layer's
// public functions and the outputs the program already publishes (the
// engine's run report, the daemon's job views and /v1/metrics). Spans
// are kept in memory and written as Chrome-trace JSON when the run
// ends. End-to-end metrics never come from a traced run.

// traceReps is how many times the traced run repeats the in-process
// pipeline and the standalone layer calls; each per-layer number is the
// median.
const traceReps = 3

// span is one timed interval: a layer boundary crossed once.
type span struct {
	Name   string
	Job    string // spans of one job share it
	Parent int    // index of the span that caused this one, -1 for a root
	Start  time.Time
	End    time.Time
}

// tracer collects spans; a nil *tracer records nothing, which is how
// the untraced baseline of trace.overhead_frac runs the same code.
type tracer struct {
	spans []span
}

// open starts a span whose children need its index before it ends.
func (t *tracer) open(name, job string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start})
	return len(t.spans) - 1
}

func (t *tracer) close(id int, end time.Time) {
	if t != nil {
		t.spans[id].End = end
	}
}

// add records a finished span.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	id := t.open(name, job, parent, start)
	t.close(id, end)
	return id
}

// layerMetrics is every per-layer metric of BENCHMARK.json. A traced
// run reports all of them on every workload; a layer the workload does
// not reach reports 0.
var layerMetrics = []metricDef{
	{"dsl.parse_s", "s", "lower"},
	{"dsl.canonical_hash_s", "s", "lower"},
	{"depgraph.analyze_s", "s", "lower"},
	{"depgraph.tasks", "count", "lower"},
	{"core.generate_s", "s", "lower"},
	{"core.export_s", "s", "lower"},
	{"core.critical_path_s", "s", "lower"},
	{"core.task_busy_s", "s", "lower"},
	{"core.parallelism", "ratio", "higher"},
	{"core.unaccounted_s", "s", "lower"},
	{"core.speedup_gomaxprocs", "ratio", "higher"},
	{"pgen.fill_s", "s", "lower"},
	{"pgen.values_per_s", "1/s", "higher"},
	{"sgen.structure_s", "s", "lower"},
	{"sgen.lfr_run_s", "s", "lower"},
	{"sgen.rmat_run_s", "s", "lower"},
	{"sgen.zipf_attachment_run_s", "s", "lower"},
	{"sgen.edges_per_s", "edges/s", "higher"},
	{"graph.csr_build_s", "s", "lower"},
	{"graph.csr_edges_per_s", "edges/s", "higher"},
	{"match.task_s", "s", "lower"},
	{"match.first_pass_s", "s", "lower"},
	{"match.refine_s", "s", "lower"},
	{"match.mapping_s", "s", "lower"},
	{"match.bipartite_s", "s", "lower"},
	{"match.l1", "ratio", "lower"},
	{"match.homophily_obs", "ratio", "higher"},
	{"table.encode_csv_s", "s", "lower"},
	{"table.encode_jsonl_s", "s", "lower"},
	{"table.encode_columnar_s", "s", "lower"},
	{"table.encode_csv_mb_per_s", "MB/s", "higher"},
	{"table.encode_jsonl_mb_per_s", "MB/s", "higher"},
	{"table.encode_columnar_mb_per_s", "MB/s", "higher"},
	{"table.read_columnar_s", "s", "lower"},
	{"table.bytes_out", "bytes", "lower"},
	{"service.startup_s", "s", "lower"},
	{"service.submit_s", "s", "lower"},
	{"service.queue_wait_s", "s", "lower"},
	{"service.wait_s", "s", "lower"},
	{"service.phase_generate_s", "s", "lower"},
	{"service.phase_match_s", "s", "lower"},
	{"service.phase_export_s", "s", "lower"},
	{"service.phase_hash_store_s", "s", "lower"},
	{"service.serve_s", "s", "lower"},
	{"service.serve_mb_per_s", "MB/s", "higher"},
	{"service.unaccounted_s", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.lru_evictions", "count", "lower"},
	{"service.store_retries", "count", "lower"},
	{"service.job_s_p95", "s", "lower"},
	{"proc.user_s_per_job", "s", "lower"},
	{"proc.sys_s_per_job", "s", "lower"},
	{"harness.build_s", "s", "lower"},
	{"harness.spinup_s", "s", "lower"},
	{"harness.verify_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// samples accumulates one value per repetition under a metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// pipeline is one in-process run of what a `datasynth` job does, from
// schema text to committed files.
type pipeline struct {
	schema  *schema.Schema
	dataset *table.Dataset
	wall    time.Duration
}

// runPipeline drives the layers a job crosses, in order, each through
// its public entry point, with the engine at its defaults (what the CLI
// runs with default flags). With a tracer it records a span per call,
// turns the engine's run report into task and file spans, and adds the
// repetition's layer times to out.
func runPipeline(ctx context.Context, t *tracer, out samples, job, text string, format table.Format, dir string) (*pipeline, error) {
	start := time.Now()
	root := t.open("job", job, -1, start)

	s, err := dsl.Parse(text)
	if err != nil {
		return nil, err
	}
	parsed := time.Now()
	t.add("dsl.parse", job, root, start, parsed)

	if err := core.ValidateSchema(s); err != nil {
		return nil, err
	}
	core.CanonicalHash(s)
	hashed := time.Now()
	t.add("dsl.canonical_hash", job, root, parsed, hashed)

	plan, err := depgraph.Analyze(s)
	if err != nil {
		return nil, err
	}
	analyzed := time.Now()
	t.add("depgraph.analyze", job, root, hashed, analyzed)

	eng := core.New(s)
	eng.ExportFormat = format
	d, err := eng.GenerateCtx(ctx)
	if err != nil {
		return nil, err
	}
	generated := time.Now()
	genSpan := t.add("core.generate", job, root, analyzed, generated)

	if err := eng.ExportCtx(ctx, d, dir); err != nil {
		return nil, err
	}
	end := time.Now()
	expSpan := t.add("core.export", job, root, generated, end)
	t.close(root, end)

	p := &pipeline{schema: s, dataset: d, wall: end.Sub(start)}
	if t == nil {
		return p, nil
	}

	rep := eng.Report()
	byKind := map[depgraph.TaskKind]time.Duration{}
	var busy time.Duration
	for _, tt := range rep.Timings {
		byKind[tt.Kind] += tt.Duration
		busy += tt.Duration
		t.add(layerOf(tt.Kind)+":"+tt.ID, job, genSpan, analyzed.Add(tt.Start), analyzed.Add(tt.Start+tt.Duration))
	}
	// The report times each file but not when it started; files are
	// laid end to end per export worker from the export's start, which
	// is the order the engine hands them out in.
	var bytesOut int64
	lanes := make([]time.Time, max(1, min(len(rep.ExportFiles), runtime.NumCPU())))
	for i := range lanes {
		lanes[i] = generated
	}
	for _, f := range rep.ExportFiles {
		bytesOut += f.Bytes
		lane := 0
		for i := range lanes {
			if lanes[i].Before(lanes[lane]) {
				lane = i
			}
		}
		t.add("table.encode:"+f.Name, job, expSpan, lanes[lane], lanes[lane].Add(f.Duration))
		lanes[lane] = lanes[lane].Add(f.Duration)
	}

	generate := generated.Sub(analyzed)
	export := end.Sub(generated)
	fill := byKind[depgraph.TaskProperty] + byKind[depgraph.TaskEdgeProperty]
	out.add("dsl.parse_s", parsed.Sub(start).Seconds())
	out.add("dsl.canonical_hash_s", hashed.Sub(parsed).Seconds())
	out.add("depgraph.analyze_s", analyzed.Sub(hashed).Seconds())
	out.add("depgraph.tasks", float64(len(plan.Tasks)))
	out.add("core.generate_s", generate.Seconds())
	out.add("core.export_s", export.Seconds())
	out.add("core.critical_path_s", rep.CriticalPathTime.Seconds())
	out.add("core.task_busy_s", busy.Seconds())
	out.add("core.parallelism", busy.Seconds()/generate.Seconds())
	out.add("core.unaccounted_s", (p.wall - parsed.Sub(start) - hashed.Sub(parsed) - analyzed.Sub(hashed) - generate - export).Seconds())
	out.add("pgen.fill_s", fill.Seconds())
	out.add("pgen.values_per_s", float64(propertyValues(d))/fill.Seconds())
	out.add("sgen.structure_s", byKind[depgraph.TaskStructure].Seconds())
	out.add("match.task_s", byKind[depgraph.TaskMatch].Seconds())
	out.add("table.bytes_out", float64(bytesOut))
	return p, nil
}

// layerOf names the package a task kind spends its time in.
func layerOf(k depgraph.TaskKind) string {
	switch k {
	case depgraph.TaskStructure:
		return "sgen"
	case depgraph.TaskMatch:
		return "match"
	default:
		return "pgen"
	}
}

// propertyValues counts the property values a dataset holds: what the
// property and edge-property tasks filled.
func propertyValues(d *table.Dataset) int64 {
	var n int64
	for typ, props := range d.NodeProps {
		n += d.NodeCounts[typ] * int64(len(props))
	}
	for typ, props := range d.EdgeProps {
		n += d.Edges[typ].Len() * int64(len(props))
	}
	return n
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans in a form chrome://tracing and
// Perfetto load. Events on one tid must nest, so overlapping siblings
// (tasks the scheduler ran side by side) are
// spread over as many tids as it takes.
func writeChromeTrace(path string, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		return sa.End.After(sb.End)
	})
	var origin time.Time
	if len(order) > 0 {
		origin = spans[order[0]].Start
	}
	// stacks[tid] holds the End of every span still open on that tid.
	var stacks [][]time.Time
	events := make([]chromeEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		tid := -1
		for l := range stacks {
			for n := len(stacks[l]); n > 0 && !stacks[l][n-1].After(s.Start); n-- {
				stacks[l] = stacks[l][:n-1]
			}
			if n := len(stacks[l]); n == 0 || !stacks[l][n-1].Before(s.End) {
				tid = l
				break
			}
		}
		if tid < 0 {
			stacks = append(stacks, nil)
			tid = len(stacks) - 1
		}
		stacks[tid] = append(stacks[tid], s.End)
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "job": s.Job},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// traceResult is what a traced run reports.
type traceResult struct {
	metrics   map[string]metric
	counts    datasetCounts
	tracePath string
	spans     int
	attempted int
	failed    int
	failures  []string
}

// runTrace is the traced run of one workload.
func runTrace(ctx context.Context, h *harness, w workload, seed uint64, d time.Duration) (*traceResult, error) {
	res := &traceResult{tracePath: filepath.Join(h.root, "bench", "out", "trace-"+w.name+".json")}
	t := &tracer{}
	out := samples{}

	format, err := table.ParseFormat(w.format)
	if err != nil {
		return nil, err
	}
	text, err := w.schemaText(h.size, w.jobSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(h.scratch, w.name+"-inproc")
	defer os.RemoveAll(dir)

	// Untraced and traced repetitions alternate, so drift over the run
	// lands on both sides of trace.overhead_frac.
	var untraced, traced []float64
	for rep := 0; rep < traceReps; rep++ {
		res.attempted += 2
		// Each run starts from a collected heap, so what the previous
		// one left behind does not decide when this one's GC cycles fall.
		runtime.GC()
		p, err := runPipeline(ctx, nil, nil, "", text, format, filepath.Join(dir, "untraced"))
		if err != nil {
			return nil, fmt.Errorf("in-process pipeline: %w", err)
		}
		untraced = append(untraced, p.wall.Seconds())
		os.RemoveAll(dir)

		job := fmt.Sprintf("inproc-%d", rep)
		runtime.GC()
		p, err = runPipeline(ctx, t, out, job, text, format, filepath.Join(dir, "traced"))
		if err != nil {
			return nil, fmt.Errorf("in-process pipeline: %w", err)
		}
		traced = append(traced, p.wall.Seconds())
		os.RemoveAll(dir)

		fid, err := runLayers(t, out, job, p, filepath.Join(dir, "layers"))
		if err != nil {
			return nil, fmt.Errorf("standalone layers: %w", err)
		}
		os.RemoveAll(dir)
		if rep == 0 {
			if msg := h.checkFidelity(w, seed, fid); msg != "" {
				res.failed++
				res.failures = append(res.failures, msg)
			}
			res.counts = countsOf(p.dataset)
		}
	}
	out.add("trace.overhead_frac", median(traced)/median(untraced)-1)

	verifyS, err := traceProcesses(ctx, h, w, seed, d, t, out, res)
	if err != nil {
		return nil, err
	}
	out.add("harness.build_s", h.buildS)
	out.add("harness.verify_s", verifyS)

	res.metrics = make(map[string]metric, len(layerMetrics))
	for _, def := range layerMetrics {
		res.metrics[def.name] = metric{Value: 0, Unit: def.unit}
	}
	for name, vs := range out {
		def, ok := res.metrics[name]
		if !ok {
			return nil, fmt.Errorf("bench: %s is measured but not declared in layerMetrics", name)
		}
		def.Value = median(vs)
		res.metrics[name] = def
	}
	res.counts.Bytes = int64(res.metrics["table.bytes_out"].Value)

	res.spans = len(t.spans)
	if err := writeChromeTrace(res.tracePath, t.spans); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// traceProcesses takes the numbers that need the real processes: the
// GOMAXPROCS scaling of a CLI job, per-job process CPU, and — for a
// service workload — a short daemon session split by the harness's own
// client timings, the job views and the /v1/metrics phase sums.
func traceProcesses(ctx context.Context, h *harness, w workload, seed uint64, d time.Duration, t *tracer, out samples, res *traceResult) (verifyS float64, err error) {
	// core.speedup_gomaxprocs: the same CLI job with one P and with all
	// of them, alternating.
	cli := newCLIRunner(ctx, h, w, seed)
	defer cli.tearDown()
	if err := cli.prepare(); err != nil {
		return 0, err
	}
	var one, all []float64
	var userS, sysS float64
	for i := 0; i < 2*traceReps; i++ {
		cli.env = nil
		name := "cli.job"
		if i%2 == 0 {
			cli.env = oneCore
			name = "cli.job GOMAXPROCS=1"
		}
		st := cli.job(i)
		cli.verify(&st)
		if st.err != nil {
			res.failures = append(res.failures, fmt.Sprintf("cli job %d: %v", i, st.err))
			continue
		}
		t.add(name, fmt.Sprintf("cli-%d", i), -1, st.start, st.start.Add(st.wall))
		if i%2 == 0 {
			// The one-core half is what an end-to-end job is.
			one = append(one, st.wall.Seconds())
			userS += st.userS
			sysS += st.sysS
		} else {
			all = append(all, st.wall.Seconds())
		}
	}
	if len(one) > 0 && len(all) > 0 {
		out.add("core.speedup_gomaxprocs", median(one)/median(all))
		out.add("proc.user_s_per_job", userS/float64(len(one)))
		out.add("proc.sys_s_per_job", sysS/float64(len(one)))
	}
	res.attempted += cli.attempted
	res.failed += cli.failed
	verifyS = cli.verifyS
	if w.kind == kindCLI {
		return verifyS, nil
	}

	svc := newSvcRunner(ctx, h, w, seed)
	m, err := measure(ctx, svc, w, d/3)
	if err != nil {
		return 0, fmt.Errorf("daemon session: %w", err)
	}
	res.attempted += m.attempted
	res.failed += m.failed
	res.failures = append(res.failures, m.failures...)
	if svc.promErr != nil {
		return 0, fmt.Errorf("daemon session: %w", svc.promErr)
	}
	serviceLayer(t, out, svc, m)
	return verifyS + m.verifyS, nil
}

// serviceLayer reduces a daemon session to the service.* metrics and
// its jobs to spans.
func serviceLayer(t *tracer, out samples, svc *svcRunner, m *measured) {
	delta := func(name string) float64 { return svc.promAfter[name] - svc.promBefore[name] }
	phase := func(name string) float64 {
		n := delta(`datasynthd_phase_latency_seconds_count{phase="` + name + `"}`)
		if n == 0 {
			return 0
		}
		return delta(`datasynthd_phase_latency_seconds_sum{phase="`+name+`"}`) / n
	}
	var submit, wait, serve, queue, walls []float64
	var bytes int64
	var serveTotal time.Duration
	for i := range m.jobs {
		st := &m.jobs[i]
		if st.err != nil {
			continue
		}
		job := fmt.Sprintf("svc-%d", st.index)
		root := t.add("service.job", job, -1, st.start, st.start.Add(st.wall))
		t.add("service.submit", job, root, st.start, st.start.Add(st.submit))
		if st.wait > 0 {
			t.add("service.wait", job, root, st.start.Add(st.submit), st.start.Add(st.submit+st.wait))
		}
		for _, ts := range st.tables {
			t.add("service.serve:"+ts.name, job, root, ts.start, ts.end)
		}
		q := 0.0
		if v := st.view; !st.cacheHit && v.Started != nil && v.Finished != nil {
			// The daemon stamps these with the same host clock.
			t.add("service.queue", job, root, v.Created, *v.Started)
			t.add("service.run", job, root, *v.Started, *v.Finished)
			q = v.Started.Sub(v.Created).Seconds()
		}
		submit = append(submit, st.submit.Seconds())
		wait = append(wait, st.wait.Seconds())
		serve = append(serve, st.serve.Seconds())
		queue = append(queue, q)
		walls = append(walls, st.wall.Seconds())
		bytes += st.bytes
		serveTotal += st.serve
	}
	gen, exp, hash := phase("generate"), phase("export"), phase("hash")
	hits := delta("datasynthd_cache_hits_total")
	misses := delta("datasynthd_cache_misses_total")
	out.add("service.startup_s", median(svc.startupS))
	out.add("service.submit_s", median(submit))
	out.add("service.queue_wait_s", median(queue))
	out.add("service.wait_s", median(wait))
	out.add("service.phase_generate_s", gen)
	out.add("service.phase_match_s", phase("match"))
	out.add("service.phase_export_s", exp)
	out.add("service.phase_hash_store_s", hash)
	out.add("service.serve_s", median(serve))
	out.add("service.serve_mb_per_s", float64(bytes)/1e6/serveTotal.Seconds())
	// The phase times are means (sum over count), so the remainder is
	// taken from means too.
	out.add("service.unaccounted_s", mean(wait)-mean(queue)-gen-exp-hash)
	if hits+misses > 0 {
		out.add("service.cache_hit_ratio", hits/(hits+misses))
	}
	out.add("service.lru_evictions", delta(`datasynthd_cache_evictions_total{reason="lru"}`))
	out.add("service.store_retries", delta("datasynthd_store_retries_total"))
	out.add("service.job_s_p95", percentile(walls, 95))
	// The daemon's CPU replaces the CLI children's: it is the process
	// this workload's jobs run in.
	out["proc.user_s_per_job"] = []float64{m.userS / float64(len(m.jobs))}
	out["proc.sys_s_per_job"] = []float64{m.sysS / float64(len(m.jobs))}
}
