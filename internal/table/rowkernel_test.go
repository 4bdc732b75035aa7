package table

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The row kernel's edges — where a padded store, the one-per-row
// capacity check, the digit writer or the word-at-a-time scan could go
// wrong without any ordinary table noticing — each held against
// encoding/csv (UseCRLF = false) and encoding/json.

// stdNodeCSV is the node table as encoding/csv writes it, numbers
// rendered by strconv.
func stdNodeCSV(t *testing.T, props []*PropertyTable, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	row := []string{"id"}
	for _, pt := range props {
		row = append(row, shortName(pt.Name))
	}
	for id := int64(-1); id < n; id++ {
		if id >= 0 {
			row = append(row[:0], strconv.FormatInt(id, 10))
			for _, pt := range props {
				if pt.Kind == KindFloat {
					row = append(row, strconv.FormatFloat(pt.Float(id), 'g', -1, 64))
				} else {
					row = append(row, pt.Format(id))
				}
			}
		}
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// checkNodeTable writes props as a CSV and a JSON-lines node table and
// compares both with the standard encoders.
func checkNodeTable(t *testing.T, what string, props []*PropertyTable) {
	t.Helper()
	n := props[0].Len()
	var got bytes.Buffer
	if err := WriteNodeCSV(&got, "T", props); err != nil {
		t.Fatalf("%s: csv: %v", what, err)
	}
	if want := stdNodeCSV(t, props, n); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: CSV differs from encoding/csv at byte %d:\n got %q\nwant %q", what, diffAt(got.Bytes(), want), around(got.Bytes(), want), around(want, got.Bytes()))
	}
	got.Reset()
	if err := WriteNodeJSONL(&got, "T", props); err != nil {
		t.Fatalf("%s: jsonl: %v", what, err)
	}
	if want := stdNodeJSONL(t, "T", props, n); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: JSONL differs from encoding/json at byte %d:\n got %q\nwant %q", what, diffAt(got.Bytes(), want), around(got.Bytes(), want), around(want, got.Bytes()))
	}
}

func diffAt(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// around is the part of a near its first difference from b.
func around(a, b []byte) []byte {
	i := diffAt(a, b)
	return a[max(0, i-40):min(len(a), i+40)]
}

// intsTable is an int or date column holding vals.
func intsTable(name string, kind ValueKind, vals []int64) *PropertyTable {
	pt := NewPropertyTable(name, kind, int64(len(vals)))
	copy(pt.ints, vals)
	return pt
}

func TestRowKernelBoundaries(t *testing.T) {
	// Every digit count, one either side of each power of ten and of the
	// eight-digit groups, both signs, the ends of int64.
	ints := []int64{0, -1, math.MaxInt64, math.MinInt64, 1e8 - 1, 1e8 + 1, 1e16 - 1, 1e16 + 1}
	for p := int64(1); p > 0 && p <= 1e18; p *= 10 {
		ints = append(ints, p-1, p, p+1, -p, 1-p)
	}
	floats := NewPropertyTable("T.f", KindFloat, int64(len(ints)))
	for i, f := range []float64{0, -2.2250738585072014e-308, -1.2345678901234567e-6, 123456789012345678901, -1.7976931348623157e308, 1e21, 1e-7} {
		floats.SetFloat(int64(i), f)
	}
	checkNodeTable(t, "ints and floats", []*PropertyTable{intsTable("T.v", KindInt, ints), floats})

	// JSON keys whose `,"key":` prefix is under, at, over and far over
	// one padded store.
	var keyed []*PropertyTable
	for _, n := range []int{1, 11, 12, 13, 14, 30} {
		keyed = append(keyed, intsTable("T."+strings.Repeat("k", n), KindInt, []int64{int64(n), -int64(n)}))
	}
	checkNodeTable(t, "key widths", keyed)

	// Coded cells of 0 … 17 bytes before and after quoting: a column
	// that fits the padded table, one in each format that just does not.
	var short, long []string
	for _, n := range []int{0, 1, 13, 14, 15, 16} {
		short = append(short, strings.Repeat("s", n))
		long = append(long, strings.Repeat("l", n))
	}
	long = append(long, strings.Repeat("l", 17))
	quoted := []string{"", "a,b", `say "hi"`, "fourteen bytes,", "<fifteen bytes>", " sixteen bytes ,", "x"}
	for len(short) < len(long) {
		short = append(short, "")
	}
	checkNodeTable(t, "coded widths", []*PropertyTable{codedTable("T.s", short), codedTable("T.l", long), codedTable("T.q", quoted)})

	// Rows whose worst case is wider than the buffer: the reserve sizes
	// it before the first row and grows it again at the fifth, where
	// four short rows have used up the slack below encFlushAt.
	var wide []*PropertyTable
	for i := 0; i < 3000; i++ {
		wide = append(wide, intsTable("T.c"+strconv.Itoa(i), KindInt, []int64{math.MinInt64, int64(i), -1, 0, 7, int64(i), math.MaxInt64}))
	}
	checkNodeTable(t, "wide rows", wide)

	// Dates through the lookup table and, the column spanning more days
	// than it holds, by arithmetic; ten bytes in CSV, twelve in JSON.
	tabled := intsTable("T.d", KindDate, []int64{MinDate, MinDate + maxDateTable - 1, MinDate + 59})
	direct := intsTable("T.e", KindDate, []int64{MinDate, MinDate + maxDateTable, MaxDate})
	edge := intsTable("T.z", KindDate, []int64{MaxDate, MaxDate - 1, MaxDate - maxDateTable + 1})
	checkNodeTable(t, "dates", []*PropertyTable{tabled, direct, edge})

	// Arena cells larger than the pooled buffer, raw and escaped, among
	// small ones.
	big := strings.Repeat("raw words ", 10<<10)
	hostile := strings.Repeat("\x01\"<é,;\t\n", 10<<10)
	cells := []string{"first", big, "", hostile, " lead", "last"}
	checkNodeTable(t, "big cells", []*PropertyTable{arenaTable(t, "T.t", cells), codedTable("T.c", cells)})
}

// sizeWriter records the size of every Write.
type sizeWriter struct {
	sizes []int
	bytes.Buffer
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestRowFlushBoundary: a row that ends exactly on encFlushAt is flushed
// with everything before it; one byte short, it waits for the next row.
// Either way the file is the same.
func TestRowFlushBoundary(t *testing.T) {
	const head, row0 = len("id,t\n"), len("0,\n")
	for _, short := range []int{0, 1} {
		cells := []string{strings.Repeat("x", encFlushAt-head-row0-short), "second", "third"}
		props := []*PropertyTable{arenaTable(t, "T.t", cells)}
		var w sizeWriter
		if err := WriteNodeCSV(&w, "T", props); err != nil {
			t.Fatal(err)
		}
		want := []int{encFlushAt, len("1,second\n2,third\n")}
		if short == 1 {
			want = []int{encFlushAt - 1 + len("1,second\n"), len("2,third\n")}
		}
		if len(w.sizes) != 2 || w.sizes[0] != want[0] || w.sizes[1] != want[1] {
			t.Errorf("first row %d bytes short of encFlushAt: writes of %v bytes, want %v", short, w.sizes, want)
		}
		if !bytes.Equal(w.Bytes(), stdNodeCSV(t, props, 3)) {
			t.Errorf("first row %d bytes short of encFlushAt: the file differs from encoding/csv", short)
		}
	}
}

// TestRawScanMatchesTable: the word-at-a-time scan and the byte walk
// over plain[] agree on every byte value in every lane of a word and in
// every position of every tail length, for each format.
func TestRawScanMatchesTable(t *testing.T) {
	walk := func(f *cellFormat, c *Chunk) bool {
		for _, b := range c.Data {
			if !f.plain[b] {
				return false
			}
		}
		return f.json || len(c.Data) == 0 || c.Data[0] != ' '
	}
	formats := map[string]*cellFormat{"json": newCellFormat(true), "csv": newCellFormat(false)}
	for name, f := range formats {
		for size := 0; size < 24; size++ {
			for at := 0; at < size; at++ {
				for b := 0; b < 256; b++ {
					data := bytes.Repeat([]byte{'a'}, size)
					data[at] = byte(b)
					c := &Chunk{Data: data, Offs: []uint32{0, uint32(size)}}
					if got, want := f.raw(c), walk(f, c); got != want {
						t.Fatalf("%s: byte %#x at %d of %d: raw = %v, the table walk says %v", name, b, at, size, got, want)
					}
				}
			}
		}
		if !f.raw(&Chunk{Data: []byte("sixteenplainbyte"), Offs: []uint32{0, 16}}) {
			t.Errorf("%s: a plain chunk is not raw", name)
		}
	}
}

// TestEncBufPoolDropsGrownBuffer: one huge cell grows the row buffer; the
// grown buffer must not go back to the pool, where it would stay for the
// life of the process.
func TestEncBufPoolDropsGrownBuffer(t *testing.T) {
	huge := []*PropertyTable{arenaTable(t, "T.t", []string{strings.Repeat("x", 8<<20)})}
	small := []*PropertyTable{arenaTable(t, "T.t", []string{"x"})}
	for i := 0; i < 4; i++ {
		var sink bytes.Buffer
		if err := WriteNodeCSV(&sink, "T", huge); err != nil {
			t.Fatal(err)
		}
		if err := WriteNodeJSONL(&sink, "T", small); err != nil {
			t.Fatal(err)
		}
		bp := getEncBuf()
		if c := cap(*bp); c > 1<<20 {
			t.Fatalf("round %d: the pool handed out a %d-byte buffer after an 8 MiB cell", i, c)
		}
		putEncBuf(bp)
	}
}
