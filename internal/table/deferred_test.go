package table

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Deferred columns inside the table package: the chunk read, the date
// lookup table without rows to scan, and materialisation under
// concurrent readers. That a deferred dataset exports the bytes of a
// stored one, for the engine's real schemas, is TestDeferredEqualsStored.

// deferredOf returns a deferred column whose fill copies the stored
// column pt, and a counter of the chunks it was asked for.
func deferredOf(pt *PropertyTable) (*PropertyTable, *atomic.Int64) {
	var fills atomic.Int64
	return NewDeferredTable(pt.Name, pt.Kind, pt.n, pt.dict, func(dst *Chunk, lo, hi int64) error {
		fills.Add(1)
		src := pt.Chunk(lo, hi)
		copy(dst.Ints, src.Ints)
		copy(dst.Floats, src.Floats)
		copy(dst.Codes, src.Codes)
		if src.Offs != nil {
			dst.Grow(int(hi-lo), len(src.Data))
			for i := 0; i < int(hi-lo); i++ {
				dst.AppendStr(src.Str(i))
			}
		}
		return nil
	}), &fills
}

// deferredFixture is one column of every kind and layout, stored and
// deferred, over n rows.
func deferredFixture(t *testing.T, n int) (stored, deferred []*PropertyTable) {
	t.Helper()
	ints, dates := make([]int64, n), make([]int64, n)
	floats := NewPropertyTable("T.f", KindFloat, int64(n))
	words, tags := make([]string, n), make([]string, n)
	for i := range ints {
		ints[i], dates[i] = int64(i)*7919-1e6, 10957+int64(i%5000)
		floats.SetFloat(int64(i), float64(i)/7)
		words[i], tags[i] = fmt.Sprintf("row %d, \"quoted\"", i), []string{"a", "bb", "c,c"}[i%3]
	}
	stored = []*PropertyTable{intsTable("T.n", KindInt, ints), intsTable("T.d", KindDate, dates), floats,
		arenaTable(t, "T.text", words), codedTable("T.tag", tags)}
	for _, pt := range stored {
		d, _ := deferredOf(pt)
		deferred = append(deferred, d)
	}
	return stored, deferred
}

// TestReadChunk: the one chunk read gives a view of a stored column and
// a fill of a deferred one — zeroed first, as a fresh column is, into a
// scratch it reuses — and never materialises the column.
func TestReadChunk(t *testing.T) {
	const n = 2*ChunkRows + 100
	stored, deferred := deferredFixture(t, n)
	for k, pt := range stored {
		d := deferred[k]
		var scratch Chunk
		for lo := int64(0); lo < n; lo += ChunkRows {
			hi := min(lo+ChunkRows, n)
			want := pt.Chunk(lo, hi)
			got, err := d.ReadChunk(lo, hi, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < int(hi-lo); i++ {
				same := got.Str(i) == want.Str(i)
				if want.Ints != nil {
					same = got.Ints[i] == want.Ints[i]
				} else if want.Floats != nil {
					same = got.Floats[i] == want.Floats[i]
				}
				if !same {
					t.Fatalf("%s row %d: ReadChunk of the deferred column differs from the stored one", pt.Name, lo+int64(i))
				}
			}
			view, err := pt.ReadChunk(lo, hi, &scratch)
			if err != nil || (len(view.Ints) > 0 && &view.Ints[0] != &want.Ints[0]) {
				t.Fatalf("%s: ReadChunk of a stored column is not a view of it (%v)", pt.Name, err)
			}
		}
		if !d.Deferred() {
			t.Errorf("%s: ReadChunk materialised the column", pt.Name)
		}
	}

	// A generator may leave cells it means to be zero unwritten
	// (pgen.Constant): the scratch arrives as zero as new storage.
	writeFirst := true
	pt := NewDeferredTable("T.c", KindString, 2*ChunkRows, []string{"zero", "one"}, func(dst *Chunk, lo, hi int64) error {
		if writeFirst {
			for i := range dst.Codes {
				dst.Codes[i] = 1
			}
		}
		writeFirst = false
		return nil
	})
	var scratch Chunk
	for k, want := range []string{"one", "zero"} {
		lo := int64(k) * ChunkRows
		c, err := pt.ReadChunk(lo, lo+ChunkRows, &scratch)
		if err != nil || c.Str(17) != want {
			t.Errorf("chunk at %d reads %q, %v; want %q", lo, c.Str(17), err, want)
		}
	}

	// The cell-count check of FillChunk holds for a deferred arena chunk.
	short := NewDeferredTable("T.s", KindString, 10, nil, func(dst *Chunk, lo, hi int64) error {
		dst.AppendStr("only one")
		return nil
	})
	_, derr := short.ReadChunk(0, 10, &scratch)
	_, serr := short.filled()
	if derr == nil || serr == nil || derr.Error() != serr.Error() || !strings.Contains(derr.Error(), "rows [0,10) were filled with 1 cells") {
		t.Errorf("a short arena chunk: ReadChunk = %v, stored fill = %v; want the same refusal", derr, serr)
	}
}

// TestDeferredDateTable: a deferred date column's lookup table is sized
// from the bounds it was given, not from rows. Days outside the bounds
// render by arithmetic to the same bytes; without bounds there is no
// table; and a day outside the date domain is refused with the stored
// column's words and row.
func TestDeferredDateTable(t *testing.T) {
	const n = ChunkRows + 50
	days := make([]int64, n)
	for i := range days {
		days[i] = 10957 + int64(i%400) // 2000-01-01 and the 399 days after it
	}
	stored := intsTable("E.when", KindDate, days)
	export := func(pt *PropertyTable) (string, string, error) {
		var c, j bytes.Buffer
		if err := WriteNodeCSV(&c, "E", []*PropertyTable{pt}); err != nil {
			return "", "", err
		}
		err := WriteNodeJSONL(&j, "E", []*PropertyTable{pt})
		return c.String(), j.String(), err
	}
	wantCSV, wantJSON, err := export(stored)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		lo, hi  int64
		known   bool
		tabDays uint64
	}{
		{"bounds that hold every day", 10957, 10957 + 399, true, 400},
		{"bounds that miss days on both sides", 10957 + 100, 10957 + 199, true, 100},
		{"bounds past the domain", MinDate - 1, MinDate + 5, true, 6},
		{"bounds too wide for a table", MinDate, MaxDate, true, 0},
		{"no bounds", 0, 0, false, 0},
	} {
		d, _ := deferredOf(stored)
		if c.known {
			d.SetDateBounds(c.lo, c.hi)
		}
		rf, err := newCellFormat(false).field(d)
		if err != nil || rf.tabDays != c.tabDays || (rf.tab == nil) != (c.tabDays == 0) {
			t.Errorf("%s: a table of %d days (%v), want %d", c.name, rf.tabDays, err, c.tabDays)
		}
		gotCSV, gotJSON, err := export(d)
		if err != nil || gotCSV != wantCSV || gotJSON != wantJSON {
			t.Errorf("%s: the deferred column exports differently from the stored one (%v)", c.name, err)
		}
	}

	stored.SetInt(ChunkRows+7, MaxDate+1)
	_, _, wantErr := export(stored)
	d, _ := deferredOf(stored)
	d.SetDateBounds(10957, 10957+399)
	_, _, gotErr := export(d)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), fmt.Sprintf("E.when row %d: day %d", ChunkRows+7, MaxDate+1)) {
		t.Errorf("a day outside the domain: deferred %v, stored %v; want the same refusal", gotErr, wantErr)
	}
}

// TestMaterializeOnce: random-access readers materialise a deferred
// column once, however many arrive together, and see the stored values;
// a fill that fails leaves the column deferred and panics the reader
// with its error.
func TestMaterializeOnce(t *testing.T) {
	const n = 3*ChunkRows + 1
	stored, deferred := deferredFixture(t, n)
	for k, pt := range stored {
		d, fills := deferredOf(pt)
		deferred[k] = d
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, id := range []int64{0, ChunkRows, n - 1} {
					if got, want := d.Format(id), pt.Format(id); got != want {
						t.Errorf("%s row %d: %q, want %q", pt.Name, id, got, want)
					}
				}
			}()
		}
		wg.Wait()
		if d.Deferred() || fills.Load() != 4 {
			t.Errorf("%s: deferred=%v after %d chunk fills, want one fill of each of 4 chunks", pt.Name, d.Deferred(), fills.Load())
		}
		if got, want := d.Strings(), pt.Strings(); len(got) != len(want) || (len(got) > 0 && got[n-1] != want[n-1]) {
			t.Errorf("%s: Strings() of the materialised column differs", pt.Name)
		}
	}

	bad := NewDeferredTable("T.bad", KindInt, 10, nil, func(*Chunk, int64, int64) error { return fmt.Errorf("no rows today") })
	if err := bad.Materialize(); err == nil || !bad.Deferred() {
		t.Errorf("Materialize = %v, deferred = %v; want the fill's error and the column left deferred", err, bad.Deferred())
	}
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "no rows today") {
			t.Errorf("Int on a column whose fill fails: recovered %v, want the fill's error", v)
		}
	}()
	bad.Int(3)
}

// TestExportReportsFill: the export's per-file stat carries the time
// spent filling deferred columns, in every format, and none when every
// column is stored.
func TestExportReportsFill(t *testing.T) {
	stored, deferred := deferredFixture(t, ChunkRows+10)
	for _, format := range []Format{FormatCSV, FormatJSONL, FormatColumnar} {
		for name, props := range map[string][]*PropertyTable{"stored": stored, "deferred": deferred} {
			d := NewDataset()
			d.NodeCounts["T"], d.NodeProps["T"] = props[0].Len(), props
			files, err := d.ExportCtx(context.Background(), t.TempDir(), ExportOptions{Format: format})
			if err != nil {
				t.Fatal(err)
			}
			if f := files[0]; (f.Fill > 0) != (name == "deferred") || f.Fill > f.Duration {
				t.Errorf("%v, %s columns: fill %v of %v", format, name, f.Fill, f.Duration)
			}
			for _, pt := range deferred {
				if !pt.Deferred() {
					t.Errorf("%v: the export materialised %s", format, pt.Name)
				}
			}
		}
	}
}
