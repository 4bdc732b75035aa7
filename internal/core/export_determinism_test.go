package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"datasynth/internal/depgraph"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// hashDir returns the SHA-256 of every regular file in dir, keyed by
// file name.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		hashes[ent.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	if len(hashes) == 0 {
		t.Fatalf("no files exported into %s", dir)
	}
	return hashes
}

// exportHashes generates the schema at the given worker count, exports
// it in every format at the given export worker count, and returns the
// per-file SHA-256 set. It runs under GOMAXPROCS=4 so that the worker
// count alone picks SBM-Part's stream driver whatever the box has:
// serial at 1 and 2 workers, windowed at 3 and up (and at 0 = auto).
func exportHashes(t *testing.T, s *schema.Schema, workers, exportWorkers int) map[string]string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := New(s)
	e.Workers = workers
	d, err := e.Generate()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	dir := t.TempDir()
	hashes := map[string]string{}
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		sub := filepath.Join(dir, format.String())
		if _, err := d.Export(sub, table.ExportOptions{Format: format, Workers: exportWorkers}); err != nil {
			t.Fatalf("workers=%d %v: %v", workers, format, err)
		}
		for name, h := range hashDir(t, sub) {
			hashes[format.String()+"/"+name] = h
		}
	}
	return hashes
}

// exportConfigs is the (scheduler workers, export workers) matrix both
// determinism tests walk after their sequential, serial-stream,
// serial-export baseline at {1, 1}.
var exportConfigs = []struct{ workers, exportWorkers int }{
	{1, 4},
	{2, 2}, // parallel plan, still the serial stream
	{3, 1}, // windowed stream
	{4, 8},
	{0, 0}, // everything auto
}

// checkExportDeterminism compares s's exported hashes at every
// exportConfigs entry against the {1, 1} baseline, which it returns.
func checkExportDeterminism(t *testing.T, s func() *schema.Schema) map[string]string {
	t.Helper()
	ref := exportHashes(t, s(), 1, 1)
	if len(ref) != 6 {
		t.Fatalf("expected 6 exported files (csv+jsonl+columnar × nodes+edges), got %d", len(ref))
	}
	for _, cfg := range exportConfigs {
		got := exportHashes(t, s(), cfg.workers, cfg.exportWorkers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d files, want %d", cfg.workers, len(got), len(ref))
		}
		for name, h := range ref {
			if got[name] != h {
				t.Errorf("workers=%d exportWorkers=%d: %s hash %s, want %s", cfg.workers, cfg.exportWorkers, name, got[name], h)
			}
		}
	}
	return ref
}

// TestExportedDatasetGoldenDeterminism is the end-to-end determinism
// contract: a Figure-3-style schema (LFR structure + SBM-Part match +
// parallel property fill) must export byte-identical node, edge and
// property files — hash-verified on disk, not just in memory — at
// every scheduler worker count (and so under both SBM-Part stream
// drivers), every export worker count and in every export format
// ("per-seed, worker-invariant, format-stable").
func TestExportedDatasetGoldenDeterminism(t *testing.T) {
	checkExportDeterminism(t, quickstartSchema)
}

// refinedQuickstartSchema is the quickstart schema with re-streaming
// refinement passes on its correlated edge, so match tasks exercise
// PartitionMultiPass end to end.
func refinedQuickstartSchema() *schema.Schema {
	s := quickstartSchema()
	s.Edges[0].Correlation.Passes = 2
	return s
}

// TestExportedRefinedDatasetGoldenDeterminism extends the contract to
// the multi-pass matcher: with refinement passes in the schema, the
// exported files must hash identically whether the first pass and the
// refinement passes stream serially or windowed.
func TestExportedRefinedDatasetGoldenDeterminism(t *testing.T) {
	ref := checkExportDeterminism(t, refinedQuickstartSchema)
	// The refined dataset must actually differ from the single-pass one
	// (otherwise this test would silently duplicate the one above).
	plain := exportHashes(t, quickstartSchema(), 1, 1)
	if plain["csv/edges_follows.csv"] == ref["csv/edges_follows.csv"] {
		t.Fatal("refinement passes did not change the matched edge table")
	}
}

// matchNotes returns the notes of the report's match tasks.
func matchNotes(rep *RunReport) []string {
	var notes []string
	for _, tt := range rep.Timings {
		if tt.Kind == depgraph.TaskMatch {
			notes = append(notes, tt.Note)
		}
	}
	return notes
}

// TestOneProcAutoMatchesExplicitParallel: the configuration the
// benchmark runs — every knob auto under GOMAXPROCS=1, which resolves
// the matcher to its serial stream — must export the same bytes as four
// workers on four Ps, which resolves it to the windowed one, and each
// run's match-task note must say which driver it took.
func TestOneProcAutoMatchesExplicitParallel(t *testing.T) {
	run := func(procs, workers int) (map[string]string, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := New(refinedQuickstartSchema())
		e.Workers = workers
		d, err := e.Generate()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := d.Export(dir, table.ExportOptions{Format: table.FormatCSV}); err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir), matchNotes(e.Report())
	}
	auto, autoNotes := run(1, 0)
	parallel, parallelNotes := run(4, 4)

	for name, h := range parallel {
		if auto[name] != h {
			t.Errorf("%s: GOMAXPROCS=1 auto hash %s, GOMAXPROCS=4 Workers=4 hash %s", name, auto[name], h)
		}
	}
	if len(autoNotes) != 1 || !strings.HasPrefix(autoNotes[0], "sbm serial ") {
		t.Errorf("GOMAXPROCS=1 auto match notes %q, want one starting \"sbm serial \"", autoNotes)
	}
	if len(parallelNotes) != 1 || !strings.HasPrefix(parallelNotes[0], "sbm windowed 2048×4 ") {
		t.Errorf("four-worker match notes %q, want one starting \"sbm windowed 2048×4 \"", parallelNotes)
	}
}

// TestColumnarExportRoundTripsThroughEngine: the binary format must
// reproduce an engine-generated dataset exactly — counts, structure
// and every property value — when loaded back with OpenColumnar.
func TestColumnarExportRoundTripsThroughEngine(t *testing.T) {
	e := New(quickstartSchema())
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.WriteDirColumnar(dir); err != nil {
		t.Fatal(err)
	}
	got, err := table.OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	for typ, n := range d.NodeCounts {
		if got.NodeCounts[typ] != n {
			t.Errorf("count[%s] = %d, want %d", typ, got.NodeCounts[typ], n)
		}
		for i, want := range d.NodeProps[typ] {
			pt := got.NodeProps[typ][i]
			if pt.Name != want.Name || pt.Kind != want.Kind || pt.Len() != want.Len() {
				t.Fatalf("prop %s malformed after round trip", want.Name)
			}
			for id := int64(0); id < want.Len(); id++ {
				if pt.Value(id) != want.Value(id) {
					t.Fatalf("%s row %d: %v, want %v", want.Name, id, pt.Value(id), want.Value(id))
				}
			}
		}
	}
	for typ, want := range d.Edges {
		et := got.Edges[typ]
		if et == nil || et.Len() != want.Len() {
			t.Fatalf("edge table %s missing or wrong length", typ)
		}
		for i := range want.Tail {
			if et.Tail[i] != want.Tail[i] || et.Head[i] != want.Head[i] {
				t.Fatalf("edge %s row %d differs", typ, i)
			}
		}
	}
}

// TestEngineExportReport: Engine.Export must fold the export into the
// run report — end-to-end wall, per-file stats, and an export hop
// terminating the critical path.
func TestEngineExportReport(t *testing.T) {
	e := New(quickstartSchema())
	e.ExportFormat = table.FormatColumnar
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	planPath := len(e.Report().CriticalPath)
	if err := e.Export(d, filepath.Join(t.TempDir(), "out")); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.ExportTotal <= 0 {
		t.Fatal("export wall time not recorded")
	}
	if len(rep.ExportFiles) == 0 {
		t.Fatal("no per-file export stats")
	}
	for _, f := range rep.ExportFiles {
		if f.Bytes <= 0 || f.Duration < 0 {
			t.Errorf("file stat %+v malformed", f)
		}
		if filepath.Ext(f.Name) != table.ColumnarExt {
			t.Errorf("file %s does not use the configured format", f.Name)
		}
	}
	if rep.EndToEnd != rep.Total+rep.ExportTotal {
		t.Errorf("EndToEnd = %v, want %v", rep.EndToEnd, rep.Total+rep.ExportTotal)
	}
	if len(rep.CriticalPath) != planPath+1 {
		t.Fatalf("critical path has %d steps, want %d", len(rep.CriticalPath), planPath+1)
	}
	last := rep.CriticalPath[len(rep.CriticalPath)-1]
	if len(last) < 8 || last[:7] != "export:" {
		t.Errorf("critical path does not end in an export hop: %q", last)
	}
	if s := rep.String(); !strings.Contains(s, "end-to-end") || !strings.Contains(s, "export:") {
		t.Errorf("report rendering missing export section:\n%s", s)
	}
}

// TestRunReportCriticalPath: every Generate must record one timing per
// task and a critical path that respects the dependency structure
// (property → structure → match chains for the quickstart schema).
func TestRunReportCriticalPath(t *testing.T) {
	e := New(quickstartSchema())
	e.Workers = 2
	if e.Report() != nil {
		t.Fatal("report non-nil before first Generate")
	}
	if _, err := e.Generate(); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep == nil {
		t.Fatal("no report after Generate")
	}
	plan, err := depgraph.Analyze(e.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) != len(plan.Tasks) {
		t.Fatalf("%d timings for %d tasks", len(rep.Timings), len(plan.Tasks))
	}
	if len(rep.CriticalPath) == 0 || rep.CriticalPathTime <= 0 {
		t.Fatalf("empty critical path: %+v", rep.CriticalPath)
	}
	if rep.CriticalPathTime > rep.Total {
		// The path is a lower bound on wall time; it can never exceed
		// the measured total.
		t.Fatalf("critical path %v exceeds total %v", rep.CriticalPathTime, rep.Total)
	}
	// The critical path must be a real dependency chain: consecutive
	// entries linked by plan edges.
	idx := map[string]int{}
	for i, task := range plan.Tasks {
		idx[task.ID()] = i
	}
	for i := 1; i < len(rep.CriticalPath); i++ {
		cur, ok := idx[rep.CriticalPath[i]]
		if !ok {
			t.Fatalf("unknown task %q on critical path", rep.CriticalPath[i])
		}
		prev := idx[rep.CriticalPath[i-1]]
		linked := false
		for _, d := range plan.Deps[cur] {
			if d == prev {
				linked = true
				break
			}
		}
		if !linked {
			t.Fatalf("critical path step %q -> %q is not a plan dependency",
				rep.CriticalPath[i-1], rep.CriticalPath[i])
		}
	}
	// Critical flags in Timings must match the path.
	critical := 0
	for _, tt := range rep.Timings {
		if tt.Critical {
			critical++
		}
	}
	if critical != len(rep.CriticalPath) {
		t.Fatalf("%d critical-flagged tasks, path has %d", critical, len(rep.CriticalPath))
	}
	if s := rep.String(); len(s) == 0 {
		t.Fatal("empty report rendering")
	}
}
