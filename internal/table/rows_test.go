package table

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Differential tests of the row writer's renderers against the standard
// library, allocation guards for the three row-oriented writers, the
// string layouts' equivalence, and the date domain.

// arenaTable builds an arena string table from vals the way a generator
// does: ChunkRows cells at a time.
func arenaTable(t testing.TB, name string, vals []string) *PropertyTable {
	t.Helper()
	n := int64(len(vals))
	pt := NewStringTable(name, n, nil)
	for lo := int64(0); lo < n; lo += ChunkRows {
		hi := min(lo+ChunkRows, n)
		err := pt.FillChunk(lo, hi, func(dst *Chunk) error {
			dst.Grow(int(hi-lo), 0)
			for _, v := range vals[lo:hi] {
				dst.AppendStr(v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// codedTable builds a coded string table from vals cell by cell.
func codedTable(name string, vals []string) *PropertyTable {
	pt := NewPropertyTable(name, KindString, int64(len(vals)))
	for i, v := range vals {
		pt.SetString(int64(i), v)
	}
	return pt
}

// FuzzNumberRender: the digit writer — which also numbers the rows —
// must agree with strconv.AppendInt on every int64, and the civil-date
// arithmetic — direct and through a column's lookup
// table, at its edges — with time.Format over the whole date domain.
func FuzzNumberRender(f *testing.F) {
	for _, v := range []int64{0, 7, -7, 10, 99, 100, 12345, -987654321, math.MaxInt64, math.MinInt64,
		MinDate, MaxDate, -1, 11016, 59, 60, -719162 + 365, maxDateTable,
		// The digit writer's groups of eight and the ends of each.
		9, 9999, 10000, 1e8 - 1, 1e8, 1e8 + 1, -1e8, 1e16 - 1, 1e16, 1e16 + 1, 1e18, -1e18, math.MaxInt64 - 1} {
		f.Add(v, uint16(0))
		f.Add(v, uint16(maxDateTable-1))
	}
	f.Fuzz(func(t *testing.T, v int64, span uint16) {
		var buf [1 + intWidth + 8]byte
		buf[0] = 'x'
		if got, want := buf[:putInt(buf[:], 1, v)], strconv.AppendInt([]byte("x"), v, 10); !bytes.Equal(got, want) {
			t.Fatalf("putInt(%d) = %q, strconv %q", v, got, want)
		}
		if u := uint64(v); u < 1e8 {
			if got := digits8(u) | ascii0; string(binary.LittleEndian.AppendUint64(nil, got)) != fmt.Sprintf("%08d", u) {
				t.Fatalf("digits8(%d) = %x", u, got)
			}
		}
		// Fold v into the date domain; lo … lo+span is one column.
		lo := MinDate + int64(uint64(v)%uint64(MaxDate-MinDate+1))
		hi := min(lo+int64(span), MaxDate)
		iso := func(d int64) string { return time.Unix(d*86400, 0).UTC().Format("2006-01-02") }
		if got := FormatDate(lo); got != iso(lo) {
			t.Fatalf("FormatDate(%d) = %q, time.Format %q", lo, got, iso(lo))
		}
		if back, err := ParseDate(iso(lo)); err != nil || back != lo {
			t.Fatalf("ParseDate(%q) = %d, %v; want %d", iso(lo), back, err, lo)
		}
		// One column with the table, one a day too wide for it.
		for _, top := range []int64{hi, min(lo+maxDateTable, MaxDate)} {
			pt := NewPropertyTable("T.d", KindDate, 3)
			for i, d := range []int64{lo, top, (lo + top) / 2} {
				pt.SetInt(int64(i), d)
			}
			var csvOut, jsonOut bytes.Buffer
			if err := WriteNodeCSV(&csvOut, "T", []*PropertyTable{pt}); err != nil {
				t.Fatal(err)
			}
			if err := WriteNodeJSONL(&jsonOut, "T", []*PropertyTable{pt}); err != nil {
				t.Fatal(err)
			}
			wantCSV, wantJSON := "id,d\n", ""
			for i, d := range pt.Ints() {
				wantCSV += fmt.Sprintf("%d,%s\n", i, iso(d))
				wantJSON += fmt.Sprintf(`{"d":"%s","id":%d,"label":"T"}`+"\n", iso(d), i)
			}
			if csvOut.String() != wantCSV || jsonOut.String() != wantJSON {
				t.Fatalf("dates %d … %d: wrote %q and %q, want %q and %q", lo, top, csvOut.String(), jsonOut.String(), wantCSV, wantJSON)
			}
		}
	})
}

// FuzzStringCells: whatever the value, a string cell must reach the
// file as encoding/csv and encoding/json would write it — whether its column is coded (rendered once per value), an arena
// whose chunk is clean (raw spans) or one that is not (per-cell
// quoting) — and all three layouts must make the same columnar file,
// which loads back to the same strings.
func FuzzStringCells(f *testing.F) {
	f.Add("plain", "words only")
	f.Add("comma,inside", `quote"inside`)
	f.Add("multi\nline\r\n", " leading space")
	f.Add(`\.`, "")
	f.Add("tab\tsep", "semi;colon")
	f.Add("ünïcødé ✓", " nbsp first")
	f.Add("<script>&amp;</script>", "ctrl \x00\x1f")
	f.Add("invalid \xff\xfe utf8", "line seps    ")
	// The padded stores' widths (a cell of 14, 16 and 17 bytes rendered)
	// and the word scan's lanes and tail: an excluded byte, a control
	// byte and a non-ASCII one at the end of a word, past it, in the tail.
	f.Add("fourteen bytes", "sixteen bytes ok")
	f.Add("seventeen bytes ok", "")
	f.Add("seven b\"", "sevenby\\eight")
	f.Add("1234567,", "12345678;")
	f.Add("1234567\x1f", "123456789012345\x7f")
	f.Add("1234567\x80", "12345678<>&")
	f.Add(strings.Repeat("wide cell ", 7000), " ")
	f.Fuzz(func(t *testing.T, a, b string) {
		// A clean neighbour keeps the second arena chunk raw while the
		// first one, holding a and b, is whatever the fuzzer made it.
		vals := []string{a, b, a, "", "clean"}
		for len(vals) <= ChunkRows {
			vals = append(vals, "clean")
		}
		vals = append(vals, "tail", b)
		layouts := []*PropertyTable{codedTable("T.s", vals), arenaTable(t, "T.s", vals)}

		// The standard encoders render the fuzzed rows; the filler rows
		// are spelled out.
		var wantCSV, wantJSON bytes.Buffer
		cw := csv.NewWriter(&wantCSV)
		if err := cw.Write([]string{"id", "s"}); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v == "clean" {
				cw.Flush()
				fmt.Fprintf(&wantCSV, "%d,clean\n", i)
				fmt.Fprintf(&wantJSON, `{"id":%d,"label":"T","s":"clean"}`+"\n", i)
				continue
			}
			if err := cw.Write([]string{strconv.Itoa(i), v}); err != nil {
				t.Skipf("encoding/csv rejected %q: %v", v, err)
			}
			row, err := json.Marshal(map[string]any{"id": i, "label": "T", "s": v})
			if err != nil {
				t.Fatal(err)
			}
			wantJSON.Write(append(row, '\n'))
		}
		cw.Flush()

		var files [][]byte
		for _, pt := range layouts {
			var gotCSV, gotJSON, dsc bytes.Buffer
			if err := WriteNodeCSV(&gotCSV, "T", []*PropertyTable{pt}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Fatalf("CSV of %q, %q: wrote %q…, encoding/csv %q…", a, b, head(gotCSV.Bytes()), head(wantCSV.Bytes()))
			}
			if err := WriteNodeJSONL(&gotJSON, "T", []*PropertyTable{pt}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Fatalf("JSONL of %q, %q: wrote %q…, encoding/json %q…", a, b, head(gotJSON.Bytes()), head(wantJSON.Bytes()))
			}
			if err := WriteNodeColumnar(&dsc, "T", pt.Len(), []*PropertyTable{pt}); err != nil {
				t.Fatal(err)
			}
			files = append(files, dsc.Bytes())
			back, err := ReadColumnarTable(bytes.NewReader(dsc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range back.Props[0].Strings() {
				if got != vals[i] || pt.String(int64(i)) != vals[i] {
					t.Fatalf("row %d: %q loaded back, %q in memory, want %q", i, got, pt.String(int64(i)), vals[i])
				}
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatal("the coded and the arena layout of one column made different columnar files")
		}
	})
}

func head(b []byte) []byte { return b[:min(len(b), 120)] }

// TestStringsMaterialises: Strings() is a copy in every layout, equal to
// the []string the column was built from.
func TestStringsMaterialises(t *testing.T) {
	vals := make([]string, 2*ChunkRows+5)
	for i := range vals {
		vals[i] = strings.Repeat("v", i%7) + strconv.Itoa(i%11)
	}
	for _, pt := range []*PropertyTable{codedTable("T.s", vals), arenaTable(t, "T.s", vals)} {
		got := pt.Strings()
		if len(got) != len(vals) {
			t.Fatalf("%d strings, want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] || pt.String(int64(i)) != vals[i] {
				t.Fatalf("row %d: Strings %q, String %q, want %q", i, got[i], pt.String(int64(i)), vals[i])
			}
		}
		got[0] = "scribble"
		if pt.String(0) != vals[0] {
			t.Error("writing to Strings()'s result reached the column")
		}
	}
	if codes, dict := codedTable("T.s", vals).Coded(); len(codes) != len(vals) || len(dict) != 1+7*11 {
		t.Errorf("coded table has %d codes over %d values, want %d over 78", len(codes), len(dict), len(vals))
	}
}

// encodeFixture is n rows of every column kind and both string layouts,
// plus an edge table over them.
func encodeFixture(t testing.TB, n int) (*EdgeTable, []*PropertyTable) {
	ints := NewPropertyTable("T.i", KindInt, int64(n))
	floats := NewPropertyTable("T.f", KindFloat, int64(n))
	dates := NewPropertyTable("T.d", KindDate, int64(n))
	coded := NewPropertyTable("T.c", KindString, int64(n))
	text := make([]string, n)
	et := NewEdgeTable("T", int64(n))
	for i := 0; i < n; i++ {
		ints.SetInt(int64(i), int64(i)*7919-1000)
		floats.SetFloat(int64(i), float64(i)/7)
		dates.SetInt(int64(i), 14610+int64(i%3653))
		coded.SetString(int64(i), []string{"music", "sports", "a,b", `q"`}[i%4])
		text[i] = "the quick graph " + strconv.Itoa(i%100)
		et.Add(int64(i*31%n), int64(i*17%n))
	}
	return et, []*PropertyTable{ints, floats, dates, coded, arenaTable(t, "T.t", text)}
}

// TestRowWritersAllocatePerTable: the CSV and JSONL writers render rows
// out of typed columns into one pooled buffer — what they allocate is
// per column (rendered values, the date table), never per row.
func TestRowWritersAllocatePerTable(t *testing.T) {
	writers := map[string]func(*EdgeTable, []*PropertyTable) error{
		"WriteNodeCSV": func(_ *EdgeTable, p []*PropertyTable) error {
			return WriteNodeCSV(io.Discard, "T", p)
		},
		"WriteEdgeCSV": func(et *EdgeTable, p []*PropertyTable) error {
			return WriteEdgeCSV(io.Discard, et, p)
		},
		"WriteNodeJSONL": func(_ *EdgeTable, p []*PropertyTable) error { return WriteNodeJSONL(io.Discard, "T", p) },
		"WriteEdgeJSONL": func(et *EdgeTable, p []*PropertyTable) error { return WriteEdgeJSONL(io.Discard, et, p) },
	}
	for name, write := range writers {
		var allocs [2]float64
		for i, n := range []int{1000, 50_000} {
			et, props := encodeFixture(t, n)
			allocs[i] = testing.AllocsPerRun(3, func() {
				if err := write(et, props); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0]+4 || allocs[1] > 100 {
			t.Errorf("%s: %.0f allocations for 1000 rows, %.0f for 50000 — want the same few", name, allocs[0], allocs[1])
		}
	}
}

// TestDateDomain: a date outside 0001-01-01 … 9999-12-31 has no
// "YYYY-MM-DD" rendering. The row writers refuse the column — naming
// the property and the row, with nothing written — instead of printing
// a wrapped or five-digit year.
func TestDateDomain(t *testing.T) {
	if got := FormatDate(MinDate) + " " + FormatDate(MaxDate); got != "0001-01-01 9999-12-31" {
		t.Errorf("the date domain renders as %q", got)
	}
	if _, err := ParseDate("0000-12-31"); err == nil {
		t.Error("ParseDate accepted a date before the domain")
	}
	for _, bad := range []int64{MaxDate + 1, MinDate - 1, math.MaxInt64 / 86400 * 2, math.MinInt64} {
		if s := FormatDate(bad); len(s) == 10 {
			t.Errorf("FormatDate(%d) = %q looks like a date", bad, s)
		}
		pt := NewPropertyTable("E.when", KindDate, 5)
		pt.SetInt(3, bad)
		var out bytes.Buffer
		for name, err := range map[string]error{
			"csv":   WriteNodeCSV(&out, "E", []*PropertyTable{pt}),
			"jsonl": WriteNodeJSONL(&out, "E", []*PropertyTable{pt}),
		} {
			if err == nil || !strings.Contains(err.Error(), "E.when row 3") {
				t.Errorf("%s of day %d: err = %v, want E.when row 3 named", name, bad, err)
			}
		}
		if out.Len() != 0 {
			t.Errorf("day %d: %d bytes written before the error", bad, out.Len())
		}
	}
}

// TestEmptyTablesExport: a table with no rows — an edge type whose
// structure drew no edges, say — writes its header (CSV), nothing
// (JSON lines) or a zero-row file (columnar) whatever its columns, the
// date column's lookup table and the arena column's chunk list
// included.
func TestEmptyTablesExport(t *testing.T) {
	props := []*PropertyTable{
		NewPropertyTable("E.when", KindDate, 0),
		NewPropertyTable("E.n", KindInt, 0),
		NewPropertyTable("E.x", KindFloat, 0),
		arenaTable(t, "E.text", nil),
		codedTable("E.tag", nil),
	}
	et := NewEdgeTable("E", 0)
	var out bytes.Buffer
	for _, c := range []struct {
		name, want string
		write      func() error
	}{
		{"node csv", "id,when,n,x,text,tag\n", func() error { return WriteNodeCSV(&out, "E", props) }},
		{"edge csv", "id,tail,head,when,n,x,text,tag\n", func() error { return WriteEdgeCSV(&out, et, props) }},
		{"node jsonl", "", func() error { return WriteNodeJSONL(&out, "E", props) }},
		{"edge jsonl", "", func() error { return WriteEdgeJSONL(&out, et, props) }},
	} {
		if err := c.write(); err != nil || out.String() != c.want {
			t.Errorf("%s: err = %v, wrote %q, want %q", c.name, err, out.String(), c.want)
		}
		out.Reset()
	}
	if err := WriteEdgeColumnar(&out, et, props); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadColumnarTable(&out)
	if err != nil || ct.Rows != 0 || len(ct.Props) != len(props) {
		t.Errorf("columnar round trip of the empty table: %+v, %v", ct, err)
	}
}

var encodeSink int

type countWriter struct{ n *int }

func (w countWriter) Write(p []byte) (int, error) { *w.n += len(p); return len(p), nil }

// edgeShape is the knows table of the paper's running example — id,
// tail, head and one date — at n rows over n/10 nodes.
func edgeShape(n int) (*EdgeTable, []*PropertyTable) {
	et := NewEdgeTable("knows", int64(n))
	date := NewPropertyTable("knows.creationDate", KindDate, int64(n))
	for i := 0; i < n; i++ {
		et.Add(int64(i*31%(n/10)), int64(i*17%(n/10)))
		date.SetInt(int64(i), 14610+int64(i*7%4018))
	}
	return et, []*PropertyTable{date}
}

// textNodeShape is its Message table: id, a coded topic, an arena text
// of three to twelve words.
func textNodeShape(t testing.TB, n int) []*PropertyTable {
	topic := NewPropertyTable("Message.topic", KindString, int64(n))
	text := make([]string, n)
	for i := range text {
		topic.SetString(int64(i), []string{"music", "sports", "politics", "travel", "food"}[i%5])
		text[i] = strings.Repeat("lorem ipsum ", 1+i%4) + "dolor sit amet " + strconv.Itoa(i%1000)
	}
	return []*PropertyTable{topic, arenaTable(t, "Message.text", text)}
}

// benchEncode times one table write and reports ns/row and MB/s.
func benchEncode(b *testing.B, rows int, write func(io.Writer) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = 0
		if err := write(countWriter{&encodeSink}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(encodeSink))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkEncodeCSV times the row writer over every column kind, over
// an edge table (integers and a date: the stores) and over a text node
// table (the arena scan and copy).
func BenchmarkEncodeCSV(b *testing.B) {
	const rows = 1 << 20
	b.Run("all-kinds", func(b *testing.B) {
		et, props := encodeFixture(b, rows)
		benchEncode(b, rows, func(w io.Writer) error { return WriteEdgeCSV(w, et, props) })
	})
	b.Run("edge", func(b *testing.B) {
		et, props := edgeShape(1_000_000)
		benchEncode(b, 1_000_000, func(w io.Writer) error { return WriteEdgeCSV(w, et, props) })
	})
	b.Run("text-node", func(b *testing.B) {
		props := textNodeShape(b, rows)
		benchEncode(b, rows, func(w io.Writer) error { return WriteNodeCSV(w, "Message", props) })
	})
}

// BenchmarkEncodeJSONL times the row writer on the recommender's rates
// table: head, id, label, tail, a one-digit rating and a date.
func BenchmarkEncodeJSONL(b *testing.B) {
	const rows = 1_000_000
	et, props := edgeShape(rows)
	et.Name, props[0].Name = "rates", "rates.date"
	rating := NewPropertyTable("rates.rating", KindInt, rows)
	for i := 0; i < rows; i++ {
		rating.SetInt(int64(i), int64(1+i%5))
	}
	props = append([]*PropertyTable{rating}, props...)
	benchEncode(b, rows, func(w io.Writer) error { return WriteEdgeJSONL(w, et, props) })
}
