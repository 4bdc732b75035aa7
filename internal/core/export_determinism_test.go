package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"datasynth/internal/depgraph"
	"datasynth/internal/par/partest"
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

// exportHashes generates the schema and exports it in every format at
// GOMAXPROCS procs — the one thing that sizes the plan's executor, the
// row fill, LFR's shards and the per-file export — and returns the
// per-file SHA-256 set.
func exportHashes(t *testing.T, s *schema.Schema, procs int) map[string]string {
	t.Helper()
	partest.SetProcs(t, procs)
	d, err := New(s).Generate()
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	dir := t.TempDir()
	hashes := map[string]string{}
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		sub := filepath.Join(dir, format.String())
		if _, err := d.Export(sub, table.ExportOptions{Format: format}); err != nil {
			t.Fatalf("GOMAXPROCS=%d %v: %v", procs, format, err)
		}
		for name, h := range hashDir(t, sub) {
			hashes[format.String()+"/"+name] = h
		}
	}
	return hashes
}

// checkExportDeterminism is the determinism table: s's exported hashes
// in csv, jsonl and columnar at GOMAXPROCS 2, 4 and 8 against the
// GOMAXPROCS=1 baseline (the benchmark's configuration), which it
// returns. files is how many files the three formats hold together.
func checkExportDeterminism(t *testing.T, s func() *schema.Schema, files int) map[string]string {
	t.Helper()
	ref := exportHashes(t, s(), 1)
	if len(ref) != files {
		t.Fatalf("expected %d exported files over csv+jsonl+columnar, got %d", files, len(ref))
	}
	for _, procs := range []int{2, 4, 8} {
		got := exportHashes(t, s(), procs)
		if len(got) != len(ref) {
			t.Fatalf("GOMAXPROCS=%d: %d files, want %d", procs, len(got), len(ref))
		}
		for name, h := range ref {
			if got[name] != h {
				t.Errorf("GOMAXPROCS=%d: %s hash %s, want %s", procs, name, got[name], h)
			}
		}
	}
	return ref
}

// TestExportedDatasetGoldenDeterminism is the end-to-end determinism
// contract: a Figure-3-style schema (LFR structure + SBM-Part match +
// parallel property fill) must export byte-identical node, edge and
// property files — hash-verified on disk, not just in memory — at
// any GOMAXPROCS and in every export format ("per-seed,
// parallelism-invariant, format-stable").
func TestExportedDatasetGoldenDeterminism(t *testing.T) {
	checkExportDeterminism(t, quickstartSchema, 6)
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
// exported files must hash identically too.
func TestExportedRefinedDatasetGoldenDeterminism(t *testing.T) {
	ref := checkExportDeterminism(t, refinedQuickstartSchema, 6)
	// The refined dataset must actually differ from the single-pass one
	// (otherwise this test would silently duplicate the one above).
	plain := exportHashes(t, quickstartSchema(), 1)
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
// benchmark runs — GOMAXPROCS=1 — must export the same bytes as four
// Ps, and either run's match task notes its SBM-Part time per pass and
// nothing about a driver: there is one.
func TestOneProcAutoMatchesExplicitParallel(t *testing.T) {
	run := func(procs int) (map[string]string, []string) {
		partest.SetProcs(t, procs)
		e := New(refinedQuickstartSchema())
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
	one, oneNotes := run(1)
	four, fourNotes := run(4)

	for name, h := range four {
		if one[name] != h {
			t.Errorf("%s: GOMAXPROCS=1 hash %s, GOMAXPROCS=4 hash %s", name, one[name], h)
		}
	}
	d := `[0-9.]+[µm]?s`
	note := regexp.MustCompile(`^csr ` + d + ` order ` + d + ` sbm ` + d + ` \(passes [^ ]+\+[^ ]+\+[^ ]+\) map ` + d + ` joint ` + d + `$`)
	for _, notes := range [][]string{oneNotes, fourNotes} {
		if len(notes) != 1 || !note.MatchString(notes[0]) {
			t.Errorf("match notes %q, want one like \"csr 4ms order 1ms sbm 340ms (passes 120ms+110ms+110ms) map 2ms joint 3ms\"", notes)
		}
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
	partest.SetProcs(t, 2)
	e := New(quickstartSchema())
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
