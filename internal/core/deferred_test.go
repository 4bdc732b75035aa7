package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/par"
	"datasynth/internal/par/partest"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Deferred columns: a property no task reads is not filled by Generate
// but by the export's encoders, chunk by chunk, and a structure or
// match task's scratch is collected when the task ends. These tests
// hold the consequences: where a generator's failure surfaces, what the
// process allocates, and what the report says.

// failsAtRow registers generators "bad-int" and "bad-text" on e that
// fail at row 10 000 — by an error, or by a panic.
func failsAtRow(t *testing.T, e *Engine, panics bool) {
	t.Helper()
	run := func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
		if id == 10_000 {
			if panics {
				panic("injected panic")
			}
			return pgen.Value{}, errors.New("injected failure")
		}
		return pgen.Value{Int: id, Str: "ok"}, nil
	}
	for name, kind := range map[string]table.ValueKind{"bad-int": table.KindInt, "bad-text": table.KindString} {
		e.PGens[name] = func(*schema.Params) (pgen.Generator, error) {
			return pgen.PerRow(name, kind, 0, run), nil
		}
	}
}

// TestDeferredFillFailureFailsExport: the generator of a column nobody
// reads runs inside the export, so that is where its failure surfaces —
// naming the column and the rows, a panic as a *par.PanicError, with
// nothing left on disk. The same generator on a column another property
// reads still fails Generate.
func TestDeferredFillFailureFailsExport(t *testing.T) {
	parse := func(src string) *schema.Schema {
		t.Helper()
		s, err := dsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, panics := range []bool{false, true} {
		for _, gen := range []string{"bad-int", "bad-text"} {
			kind := map[string]string{"bad-int": "int", "bad-text": "string"}[gen]
			s := parse(`graph g { seed = 3 node N { count = 20000 property p : ` + kind + ` = ` + gen + `() } }`)
			for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
				name := fmt.Sprintf("%s panics=%v %v", gen, panics, format)
				e := New(s)
				e.ExportFormat = format
				failsAtRow(t, e, panics)
				d, err := e.Generate()
				if err != nil {
					t.Fatalf("%s: Generate = %v; nothing reads N.p, so its fill belongs to the export", name, err)
				}
				parent := t.TempDir()
				dir := filepath.Join(parent, "out")
				err = e.Export(d, dir)
				if err == nil || !strings.Contains(err.Error(), "core: property N.p rows [8192,16384): ") {
					t.Fatalf("%s: Export = %v, want the column and its rows named", name, err)
				}
				if want := map[bool]string{false: "row 10000: injected failure", true: "injected panic"}[panics]; !strings.Contains(err.Error(), want) {
					t.Errorf("%s: Export = %v, want %q", name, err, want)
				}
				var pe *par.PanicError
				if errors.As(err, &pe) != panics {
					t.Errorf("%s: Export = %T %v, a *par.PanicError exactly when the generator panicked", name, err, err)
				}
				if left, _ := os.ReadDir(parent); len(left) != 0 {
					t.Errorf("%s: the failed export left %v behind", name, left)
				}
			}

			// q reads p: p is filled by its own task, and the failure is Generate's.
			e := New(parse(`graph g { seed = 3 node N { count = 20000
				property p : ` + kind + ` = ` + gen + `()
				property q : int = sequence() given (p) } }`))
			failsAtRow(t, e, panics)
			if _, err := e.Generate(); err == nil || !strings.Contains(err.Error(), "task P:N.p: core: property N.p rows [8192,16384): ") {
				t.Errorf("%s panics=%v, read by N.q: Generate = %v, want the fill's failure", gen, panics, err)
			}
		}
	}
}

// TestUnconsumedColumnIsNeverStored: generating and exporting a table
// whose one column nobody reads allocates a fraction of that column —
// the encoder's scratch chunk — not the column.
func TestUnconsumedColumnIsNeverStored(t *testing.T) {
	s, err := dsl.Parse(`graph g { seed = 5 node Message { count = 200000 property text : string = text(min=3, max=12) } }`)
	if err != nil {
		t.Fatal(err)
	}
	partest.SetProcs(t, 1)
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL} {
		e := New(s)
		e.ExportFormat = format
		dir := filepath.Join(t.TempDir(), "out")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := e.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Export(d, dir); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)

		pt := d.NodeProps["Message"][0]
		if !pt.Deferred() {
			t.Fatalf("%v: the export materialised %s", format, pt.Name)
		}
		column := 4 * pt.Len() // an arena column's offsets, then its bytes
		for id := int64(0); id < pt.Len(); id++ {
			column += int64(len(pt.String(id)))
		}
		grew := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%v: %d bytes allocated, column %d bytes", format, grew, column)
		if grew > column/2 {
			t.Errorf("%v: Generate+Export allocated %d bytes for a %d-byte column that nothing reads", format, grew, column)
		}
	}
}

// TestScratchCollectedAtTaskBoundary: what a structure task and a match
// task drop is collected when the task ends. The heap the matcher
// starts on is the edge table — not the edge table under LFR's dedup
// buffers — and the heap after Generate does not hold the matcher's CSR.
func TestScratchCollectedAtTaskBoundary(t *testing.T) {
	s, err := dsl.Parse(`graph g { seed = 9
		node Person { count = 60000 property country : string = categorical(dict="countries") }
		edge knows : Person *-* Person { structure = lfr(avgDegree=20, maxDegree=50, mu=0.1) correlate country homophily 0.8 } }`)
	if err != nil {
		t.Fatal(err)
	}
	partest.SetProcs(t, 1)
	e := New(s)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	runtime.GC()
	base := heap()
	var atMatch int64
	e.Logf = func(format string, args ...any) {
		if format == "task %s" && args[0] == "M:knows" {
			atMatch = heap() - base
		}
	}
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	et := d.Edges["knows"]
	edges := int64(4 * (cap(et.Tail) + cap(et.Head))) // uint32 ids
	if atMatch < edges*8/10 || atMatch > edges*12/10 {
		t.Errorf("M:knows started on a %d-byte heap, want the %d bytes of the edge table within 20 %%", atMatch, edges)
	}
	// The CSR is the edge table again (every edge at both endpoints).
	runtime.GC()
	after := heap() - base
	t.Logf("edge table %d bytes; heap at M:knows %d, after Generate %d", edges, atMatch, after)
	if after > edges*12/10 {
		t.Errorf("%d bytes are live after Generate, want the %d bytes of the edge table: the matcher's CSR is still held", after, edges)
	}
	runtime.KeepAlive(d)
}

// TestDeferredDateColumns: a deferred date column has no rows to size
// the encoders' lookup table from. Its bounds come from the schema
// (dateRange) — a range, a sequence whose row count only generation
// told, a lag on top of either — or are not known at all (a generator
// registered from outside); the bytes are those of the stored column in
// every case.
func TestDeferredDateColumns(t *testing.T) {
	s, err := dsl.Parse(`graph g { seed = 4
		node A { count = 20000
			property born : date = uniform-date(from="1990-01-01", to="1990-03-01")
			property wide : date = uniform-date(from="0001-01-01", to="9999-12-31")
			property odd : date = outside()
		}
		node B {
			property day : date = sequence(offset=10957)
			property stamp : date = sequence(offset=2900000)
		}
		edge made : A 1-* B { structure = powerlaw-out(min=1, max=4, gamma=2.0)
			property at : date = max-endpoint-date(maxDays=30) given (tail.born, head.day)
		} }`)
	if err != nil {
		t.Fatal(err)
	}
	generate := func() *table.Dataset {
		e := New(s)
		e.PGens["outside"] = func(*schema.Params) (pgen.Generator, error) {
			return pgen.PerRow("outside", table.KindDate, 0, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
				return pgen.Value{Int: id * 37 % 100_000}, nil
			}), nil
		}
		d, err := e.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	deferred, stored := generate(), generate()
	for _, pt := range []*table.PropertyTable{deferred.NodeProps["A"][1], deferred.NodeProps["A"][2], deferred.NodeProps["B"][1], deferred.EdgeProps["made"][0]} {
		if !pt.Deferred() {
			t.Errorf("%s is stored; nothing reads it", pt.Name)
		}
	}
	for _, props := range [][]*table.PropertyTable{stored.NodeProps["A"], stored.NodeProps["B"], stored.EdgeProps["made"]} {
		for _, pt := range props {
			if pt.Ints(); pt.Deferred() {
				t.Fatalf("reading %s did not materialise it", pt.Name)
			}
		}
	}
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		dirs := [2]string{t.TempDir(), t.TempDir()}
		for i, d := range []*table.Dataset{deferred, stored} {
			if _, err := d.Export(dirs[i], table.ExportOptions{Format: format}); err != nil {
				t.Fatal(err)
			}
		}
		for _, file := range []string{table.NodeFileName("A", format), table.NodeFileName("B", format), table.EdgeFileName("made", format)} {
			got, err := os.ReadFile(filepath.Join(dirs[0], file))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dirs[1], file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: deferred date columns export differently from stored ones", file)
			}
		}
	}
}

// TestReportSaysWhereTheFillWent: a deferred task's note names the file
// that fills it, that file's stat carries the fill time, and both reach
// the rendered report and its JSON.
func TestReportSaysWhereTheFillWent(t *testing.T) {
	s, err := dsl.Parse(`graph g { seed = 2 node Message { count = 30000
		property topic : string = categorical(dict="topics")
		property text : string = text(min=3, max=12) } }`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	d, err := e.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Export(d, filepath.Join(t.TempDir(), "out")); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	for _, tt := range rep.Timings {
		if tt.Note != "deferred → export:nodes_Message.csv" {
			t.Errorf("task %s: note %q, want the export file named", tt.ID, tt.Note)
		}
	}
	f := rep.ExportFiles[0]
	if f.Fill <= 0 || f.Fill > f.Duration {
		t.Errorf("%s: fill %v of %v, want a positive part of the file's time", f.Name, f.Fill, f.Duration)
	}
	if text := rep.String(); !strings.Contains(text, " (fill ") || !strings.Contains(text, "[deferred → export:nodes_Message.csv]") {
		t.Errorf("the rendered report does not show the fill:\n%s", text)
	}
	js, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"fill_ns":`)) {
		t.Errorf("the report's JSON has no fill_ns: %s", js)
	}
}
