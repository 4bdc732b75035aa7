package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{7}, 95, 7},
		{[]float64{0, 10}, 95, 9.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median sorted its argument in place: %v", xs)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := relDiff(2, 2.5); got != 0.25 {
		t.Errorf("relDiff(2, 2.5) = %v, want 0.25", got)
	}
}

// A paused stretch must cost the window neither wall time nor CPU.
func TestWindowPause(t *testing.T) {
	var user, sys float64
	win := startWindow(func() (float64, float64) { return user, sys })
	user, sys = 1, 0.5 // measured work
	win.pause(func() {
		time.Sleep(30 * time.Millisecond)
		user, sys = 4, 2.5 // verification's CPU
	})
	user, sys = 4.25, 2.5 // more measured work
	if u, s := win.cpu(); u != 1.25 || s != 0.5 {
		t.Errorf("cpu() = %v, %v; want 1.25, 0.5", u, s)
	}
	if e := win.elapsed(); e >= 30*time.Millisecond {
		t.Errorf("elapsed() = %v includes the 30ms pause", e)
	}
	if u, s := startWindow(nil).cpu(); u != 0 || s != 0 {
		t.Errorf("window without a CPU clock reports %v, %v", u, s)
	}
}

func TestClosedLoop(t *testing.T) {
	// Verification after every job; the loop stops on the clock.
	var verified int
	jobs := closedLoop(startWindow(nil), 20*time.Millisecond, 5,
		func(i int) jobStat { time.Sleep(2 * time.Millisecond); return jobStat{index: i} },
		func(*jobStat) { verified++; time.Sleep(5 * time.Millisecond) })
	if len(jobs) < 5 || verified != len(jobs) {
		t.Errorf("%d jobs, %d verified: paused verification should leave room for about 10 jobs in 20ms", len(jobs), verified)
	}
	for k, st := range jobs {
		if st.index != 5+k {
			t.Fatalf("job %d has index %d, want %d", k, st.index, 5+k)
		}
	}
	// A failing system ends the loop long before the clock.
	start := time.Now()
	jobs = closedLoop(startWindow(nil), time.Minute, 0,
		func(i int) jobStat { return jobStat{index: i, err: errors.New("down")} }, nil)
	if len(jobs) != maxFailures || time.Since(start) > 10*time.Second {
		t.Errorf("loop ran %d failing jobs in %v", len(jobs), time.Since(start))
	}
}

func TestParsePromText(t *testing.T) {
	const text = `# HELP datasynthd_phase_latency_seconds Per-job pipeline phase latency.
# TYPE datasynthd_phase_latency_seconds histogram
datasynthd_phase_latency_seconds_bucket{phase="generate",le="+Inf"} 7
datasynthd_phase_latency_seconds_sum{phase="generate"} 2.155522225
datasynthd_phase_latency_seconds_count{phase="generate"} 7
datasynthd_phase_latency_seconds_sum{phase="hash"} 0.5
datasynthd_cache_evictions_total{reason="lru"} 5
datasynthd_cache_hits_total 1200 1712345678000

weird{msg="a b} c"} 1e-3
`
	got, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`datasynthd_phase_latency_seconds_bucket{phase="generate",le="+Inf"}`: 7,
		`datasynthd_phase_latency_seconds_sum{phase="generate"}`:              2.155522225,
		`datasynthd_phase_latency_seconds_count{phase="generate"}`:            7,
		`datasynthd_phase_latency_seconds_sum{phase="hash"}`:                  0.5,
		`datasynthd_cache_evictions_total{reason="lru"}`:                      5,
		`datasynthd_cache_hits_total`:                                         1200,
		`weird{msg="a b} c"}`:                                                 0.001,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, bad := range []string{"name_only\n", "x{a=\"b\" 1\n", "x notanumber\n"} {
		if _, err := parsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("parsePromText(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// comm may hold spaces and parentheses; utime and stime are the
	// 14th and 15th fields.
	const stat = "4242 (data synth) d) S 1 4242 4242 0 -1 4194304 900 0 0 0 150 25 0 0 20 0 9 0 100 1 2"
	if u, s := parseProcStat(stat); u != 1.5 || s != 0.25 {
		t.Errorf("parseProcStat = %v, %v; want 1.5, 0.25", u, s)
	}
	if u, s := parseProcStat("garbage"); u != 0 || s != 0 {
		t.Errorf("parseProcStat(garbage) = %v, %v", u, s)
	}
}

// The seed decides the schema text and nothing else does; every schema
// the harness can generate is one the program accepts.
func TestSchemaTextFromSeed(t *testing.T) {
	for _, w := range workloads {
		for _, size := range []string{"full", "small"} {
			hashes := map[string]uint64{}
			for _, seed := range []uint64{1, 2, 77} {
				a, err := w.schemaText(size, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := w.schemaText(size, seed)
				if a != b {
					t.Errorf("%s/%s: seed %d rendered two different texts", w.name, size, seed)
				}
				if strings.Contains(a, "$") {
					t.Errorf("%s/%s: unreplaced placeholder in\n%s", w.name, size, a)
				}
				s, err := dsl.Parse(a)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.name, size, err)
				}
				if err := core.ValidateSchema(s); err != nil {
					t.Fatalf("%s/%s: %v", w.name, size, err)
				}
				if s.Seed != seed {
					t.Errorf("%s/%s: schema seed %d, want %d", w.name, size, s.Seed, seed)
				}
				h := core.CanonicalHash(s)
				if other, dup := hashes[h]; dup {
					t.Errorf("%s/%s: seeds %d and %d share canonical hash %s", w.name, size, other, seed, h)
				}
				hashes[h] = seed
			}
		}
		if _, err := w.schemaText("huge", 1); err == nil {
			t.Errorf("%s: unknown size accepted", w.name)
		}
	}
	cold, _ := findWorkload("svc-cold-jsonl")
	warm, _ := findWorkload("svc-warm-csv")
	if cold.jobSeed(3, 0) == cold.jobSeed(3, 1) {
		t.Error("cold jobs share a seed, so the second would hit the cache")
	}
	if warm.jobSeed(3, 1) != warm.jobSeed(3, 1+warm.workingSet) {
		t.Error("warm jobs do not cycle through the working set")
	}
}

// Events on one tid must nest; siblings that overlap go to another tid.
func TestChromeTraceNests(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add("job", "j", -1, at(0), at(100))
	gen := tr.add("core.generate", "j", root, at(0), at(60))
	tr.add("pgen:a", "j", gen, at(0), at(40))
	tr.add("sgen:b", "j", gen, at(10), at(50)) // overlaps pgen:a
	tr.add("match:c", "j", gen, at(50), at(60))
	tr.add("core.export", "j", root, at(60), at(100))
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(tr.spans))
	}
	tid := map[string]int{}
	for _, ev := range doc.TraceEvents {
		tid[ev.Name] = ev.Tid
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Errorf("event %+v is not a complete event", ev)
		}
	}
	if tid["pgen:a"] == tid["sgen:b"] {
		t.Error("overlapping siblings share a tid")
	}
	if tid["job"] != tid["core.generate"] || tid["job"] != tid["core.export"] || tid["job"] != tid["pgen:a"] {
		t.Errorf("nested spans were spread over tids: %v", tid)
	}
	for a := range doc.TraceEvents {
		for b := range doc.TraceEvents {
			ea, eb := doc.TraceEvents[a], doc.TraceEvents[b]
			if a == b || ea.Tid != eb.Tid {
				continue
			}
			partial := ea.Ts < eb.Ts && eb.Ts < ea.Ts+ea.Dur && ea.Ts+ea.Dur < eb.Ts+eb.Dur
			if partial {
				t.Errorf("%s and %s overlap without nesting on tid %d", ea.Name, eb.Name, ea.Tid)
			}
		}
	}
	var off *tracer
	if id := off.add("x", "j", -1, at(0), at(1)); id != -1 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics with the same units.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	same := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(file), len(defs))
			return
		}
		for i, def := range defs {
			got := file[i]
			if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the harness %s [%s, %s]",
					kind, i, got.Name, got.Unit, got.Better, def.name, def.unit, def.better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
	var largest float64
	for _, m := range bf.EndToEnd {
		largest = max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound")
	}
}

// The smoke test runs every workload, end to end and traced, at the
// small size, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, and that nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs datasynth and datasynthd")
	}
	ctx := context.Background()
	h, err := newHarness(ctx, "small")
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	bf, err := readBenchmarkFile(h.root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, rep *report, want []benchmarkMetric) {
		var buf bytes.Buffer
		printReport(&buf, rep)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.Failures)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s is not printed", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s is %v", m.Name, got.Value)
			}
		}
		if rep.Env.SchemaVersion != core.SchemaVersion || rep.Env.NProc < 1 || rep.Env.GoVersion == "" {
			t.Errorf("environment block is incomplete: %+v", rep.Env)
		}
		if rep.Counts.Nodes == 0 || rep.Counts.Edges == 0 || rep.Counts.Bytes == 0 {
			t.Errorf("resolved counts are incomplete: %+v", rep.Counts)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := endToEndReport(ctx, h, w, 5, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, bf.EndToEnd)
			for _, m := range bf.EndToEnd {
				if rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, rep.Metrics[m.Name].Value)
				}
			}
			if rep.MeasuredJobs < 2 || len(rep.SetupS) != setUps {
				t.Errorf("%d measured jobs, %d set-ups", rep.MeasuredJobs, len(rep.SetupS))
			}
		})
		t.Run(w.name+"/trace", func(t *testing.T) {
			rep, err := traceReport(ctx, h, w, 5, 600*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, bf.PerLayer)
			raw, err := os.ReadFile(rep.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != rep.Spans || rep.Spans == 0 {
				t.Errorf("trace file holds %d events for %d spans (%v)", len(doc.TraceEvents), rep.Spans, err)
			}
			// The layers of the in-process job must account for its wall.
			m := rep.Metrics
			wall := m["dsl.parse_s"].Value + m["dsl.canonical_hash_s"].Value + m["depgraph.analyze_s"].Value +
				m["core.generate_s"].Value + m["core.export_s"].Value + m["core.unaccounted_s"].Value
			if un := m["core.unaccounted_s"].Value; un < 0 || un > 0.05*wall {
				t.Errorf("core.unaccounted_s = %v of a %v s job", un, wall)
			}
			for _, name := range []string{"core.generate_s", "core.export_s", "pgen.fill_s", "sgen.structure_s", "match.task_s", "table.encode_csv_s", "core.speedup_gomaxprocs"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v on a workload that runs that layer", name, m[name].Value)
				}
			}
			if svc := w.kind != kindCLI; svc != (m["service.serve_s"].Value > 0) {
				t.Errorf("service.serve_s = %v on a %v workload", m["service.serve_s"].Value, w.name)
			}
		})
	}
}
