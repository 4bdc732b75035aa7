package table

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The row writer behind the CSV and JSON-lines connectors. A row is a
// sequence of fields, each a constant prefix (the separator, or the
// JSON key) followed by a cell rendered from a typed column. Everything
// about a cell that does not depend on the row is decided once per
// column: a coded string column renders each distinct value once,
// quoted and escaped; a date column renders each day of its range once
// into a lookup table; an arena string chunk is scanned once, and when
// nothing in it needs quoting or escaping its cells are copied as raw
// spans. The bytes match encoding/csv (UseCRLF = false) and
// encoding/json (HTML escaping on, map keys sorted) exactly; the fuzz
// tests in enc_fuzz_test.go hold the renderers against both.

// encBufPool recycles row/flush buffers across exported tables; a
// concurrent Export borrows one buffer per worker.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

func getEncBuf() *[]byte  { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { *b = (*b)[:0]; encBufPool.Put(b) }

// encFlushAt is the buffered-bytes threshold at which an encoder hands
// its batch to the underlying writer.
const encFlushAt = 48 << 10

// maxDateTable bounds a date column's lookup table, in days; a column
// spanning more renders every cell by arithmetic.
const maxDateTable = 1 << 16

// cellFormat is the cell-level difference between the two encodings.
type cellFormat struct {
	json  bool
	comma rune // CSV separator
	// plain marks the bytes an arena chunk may contain for its cells to
	// be written as raw spans.
	plain [256]bool
}

// newCellFormat returns the JSON-lines format, or the CSV one with the
// given separator (0 means ',').
func newCellFormat(json bool, comma rune) *cellFormat {
	if comma == 0 {
		comma = ','
	}
	f := &cellFormat{json: json, comma: comma}
	for b := 0x20; b < utf8.RuneSelf; b++ {
		// CSV quotes on the separator, a quote, a line break, leading
		// white space (non-ASCII included) and the cell `\.`.
		f.plain[b] = json && jsonSafeSet[b] ||
			!json && comma < utf8.RuneSelf && b != '"' && b != '\\' && b != int(comma)
	}
	return f
}

func (f *cellFormat) appendString(dst []byte, s string) []byte {
	if f.json {
		return appendJSONString(dst, s)
	}
	return appendCSVField(dst, s, f.comma)
}

// raw reports whether every cell of an arena chunk encodes as its own
// bytes (between quotes, for JSON).
func (f *cellFormat) raw(c *Chunk) bool {
	for _, b := range c.Data {
		if !f.plain[b] {
			return false
		}
	}
	if !f.json {
		for i := 0; i+1 < len(c.Offs); i++ {
			if o := c.Offs[i]; o < c.Offs[i+1] && c.Data[o] == ' ' {
				return false
			}
		}
	}
	return true
}

// rowField kinds.
const (
	fieldConst = iota // the prefix is the whole field
	fieldSeq          // the row number
	fieldInt
	fieldFloat
	fieldDate
	fieldCoded
	fieldArena
)

// rowField is one field of an emitted row.
type rowField struct {
	name string // column header, or JSON key
	pre  []byte // what precedes the cell: the separator, or `,"key":`
	kind int
	pt   *PropertyTable

	ints   []int64  // fieldInt, fieldDate
	cells  [][]byte // fieldCoded: the rendered cell of each code
	tab    []byte   // fieldDate: the rendered days [tabLo, …], width bytes each
	tabLo  int64
	width  int64
	cur    *Chunk // fieldArena: the chunk holding the current row
	curRaw bool
}

// field plans the cells of the column pt.
func (f *cellFormat) field(pt *PropertyTable) (rowField, error) {
	rf := rowField{name: shortName(pt.Name), pt: pt, ints: pt.ints}
	switch {
	case pt.Kind == KindInt:
		rf.kind = fieldInt
	case pt.Kind == KindFloat:
		rf.kind = fieldFloat
	case pt.Kind == KindDate:
		rf.kind = fieldDate
		lo, hi := MaxDate, MinDate
		for id, d := range pt.ints {
			if d < MinDate || d > MaxDate {
				return rf, fmt.Errorf("table: property %s row %d: day %d is outside the date domain %s … %s",
					pt.Name, id, d, FormatDate(MinDate), FormatDate(MaxDate))
			}
			lo, hi = min(lo, d), max(hi, d)
		}
		if len(pt.ints) > 0 && hi-lo < maxDateTable {
			rf.tabLo, rf.tab = lo, make([]byte, 0, (hi-lo+1)*12)
			for d := lo; d <= hi; d++ {
				rf.tab = f.appendDate(rf.tab, d)
			}
			rf.width = int64(len(rf.tab)) / (hi - lo + 1)
		}
	case pt.dict != nil:
		rf.kind = fieldCoded
		rf.cells = make([][]byte, len(pt.dict))
		var all []byte
		for code, s := range pt.dict {
			start := len(all)
			all = f.appendString(all, s)
			rf.cells[code] = all[start:len(all):len(all)]
		}
	default:
		rf.kind = fieldArena
	}
	return rf, nil
}

func (f *cellFormat) appendDate(dst []byte, days int64) []byte {
	if !f.json {
		return appendDate(dst, days)
	}
	return append(appendDate(append(dst, '"'), days), '"')
}

// writeRows renders head, then n rows of fields each closed by eol.
func writeRows(w io.Writer, f *cellFormat, head []byte, fields []rowField, n int64, eol string) error {
	bp := getEncBuf()
	defer putEncBuf(bp)
	buf := append((*bp)[:0], head...)
	seq := []byte{'0'}
	var err error
	for lo := int64(0); lo < n; lo += ChunkRows {
		for i := range fields {
			if rf := &fields[i]; rf.kind == fieldArena {
				rf.cur = &rf.pt.arenas[lo/ChunkRows]
				rf.curRaw = f.raw(rf.cur)
			}
		}
		for id := lo; id < min(lo+ChunkRows, n); id++ {
			for i := range fields {
				rf := &fields[i]
				buf = append(buf, rf.pre...)
				switch rf.kind {
				case fieldSeq:
					buf = append(buf, seq...)
					seq = incDecimal(seq)
				case fieldInt:
					buf = appendInt(buf, rf.ints[id])
				case fieldFloat:
					if !f.json {
						buf = strconv.AppendFloat(buf, rf.pt.floats[id], 'g', -1, 64)
					} else if buf, err = appendJSONFloat(buf, rf.pt.floats[id]); err != nil {
						return fmt.Errorf("table: property %s row %d: %w", rf.pt.Name, id, err)
					}
				case fieldDate:
					if rf.tab == nil {
						buf = f.appendDate(buf, rf.ints[id])
					} else {
						o := (rf.ints[id] - rf.tabLo) * rf.width
						buf = append(buf, rf.tab[o:o+rf.width]...)
					}
				case fieldCoded:
					buf = append(buf, rf.cells[rf.pt.codes[id]]...)
				case fieldArena:
					cell := rf.cur.Data[rf.cur.Offs[id-lo]:rf.cur.Offs[id-lo+1]]
					switch {
					case !rf.curRaw:
						buf = f.appendString(buf, string(cell))
					case f.json:
						buf = append(append(append(buf, '"'), cell...), '"')
					default:
						buf = append(buf, cell...)
					}
				}
			}
			buf = append(buf, eol...)
			if len(buf) >= encFlushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err = w.Write(buf)
	*bp = buf
	return err
}

// incDecimal adds one to the decimal number in d, in place unless it
// gains a digit.
func incDecimal(d []byte) []byte {
	for i := len(d) - 1; i >= 0; i-- {
		if d[i] != '9' {
			d[i]++
			return d
		}
		d[i] = '0'
	}
	return append([]byte{'1'}, d...)
}

// appendInt appends v in decimal, as strconv.AppendInt(dst, v, 10)
// does, writing the digits in place two at a time.
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	n := 1
	for p := uint64(10); n < 20 && u >= p; p *= 10 {
		n++
	}
	dst = append(dst, "00000000000000000000"[:n]...)
	i := len(dst)
	for u >= 100 {
		r := u % 100 * 2
		u /= 100
		i -= 2
		dst[i], dst[i+1] = digitPairs[r], digitPairs[r+1]
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}
