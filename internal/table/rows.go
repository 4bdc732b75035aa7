package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// The row writer behind the CSV and JSON-lines connectors. A row is a
// sequence of fields, each a constant prefix (the separator, or the
// JSON key) followed by a cell rendered from a typed column. Everything
// about a cell that does not depend on the row is decided once per
// column: a coded string column renders each distinct value once,
// quoted and escaped; a date column renders each day of its range once
// into a lookup table; an arena string chunk is scanned once, eight
// bytes a step, and when nothing in it needs quoting or escaping its
// cells are copied as raw spans. The bytes match encoding/csv
// (UseCRLF = false) and encoding/json (HTML escaping on, map keys
// sorted) exactly; the fuzz tests in enc_fuzz_test.go and the boundary
// tests in rowkernel_test.go hold the renderers against both.
//
// The kernel (writeRows) produces every byte once, by index into one
// buffer. Its contract:
//
//   - Reserve once per row. The worst-case width of a row outside its
//     arena cells is known per table; room for it is checked before the
//     row, and before each arena cell for that cell's bytes on top (a
//     cell that needs escaping is appended instead, and the reserve
//     restored after it). Nothing in between tests capacity.
//   - Padded stores. A prefix, a date and a short coded cell are kept
//     zero-padded to padW bytes and reach the row as one padW-byte move,
//     after which the write index advances by the true length; an
//     integer is one to three eight-byte stores of digits computed in a
//     register. The next field overwrites the padding, and the reserve
//     covers what the last store of a row spills.
//   - Flush only b[:p]. Bytes past the write index are scratch and never
//     reach the writer. A flush is one Write of whole rows, made when a
//     row ends at or past encFlushAt.
//   - One chunk at a time. Every ChunkRows rows the kernel reads each
//     column's next chunk (PropertyTable.ReadChunk) and indexes that: a
//     view of a stored column, or a deferred column's rows filled on the
//     spot into the field's scratch, which the next chunk overwrites — a
//     column nobody read before the export never exists in full.

// encBufPool recycles row/flush buffers across exported tables; a
// concurrent Export borrows one buffer per worker.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

func getEncBuf() *[]byte { return encBufPool.Get().(*[]byte) }

// putEncBuf returns a buffer to the pool, unless one huge cell grew it
// past maxPooledBuf: that one goes to the collector, not to every later
// table of the process.
func putEncBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		encBufPool.Put(b)
	}
}

const maxPooledBuf = 1 << 20

// encFlushAt is the buffered-bytes threshold at which an encoder hands
// its batch to the underlying writer.
const encFlushAt = 48 << 10

// maxDateTable bounds a date column's lookup table, in days; a column
// spanning more renders every cell by arithmetic.
const maxDateTable = 1 << 16

// cellFormat is the cell-level difference between the two encodings.
type cellFormat struct {
	json bool
	// plain marks the bytes an arena chunk may contain for its cells to
	// be written as raw spans; excluded holds each byte of 0x20 … 0x7f
	// it leaves out, repeated across a word, for raw's scan.
	plain    [256]bool
	excluded []uint64
}

// newCellFormat returns the JSON-lines format or the CSV one.
func newCellFormat(json bool) *cellFormat {
	f := &cellFormat{json: json}
	for b := 0x20; b < utf8.RuneSelf; b++ {
		// CSV quotes on a comma, a quote, a line break, leading white
		// space (non-ASCII included) and the cell `\.`.
		f.plain[b] = json && jsonSafeSet[b] ||
			!json && b != '"' && b != '\\' && b != ','
		if !f.plain[b] {
			f.excluded = append(f.excluded, uint64(b)*lsbs)
		}
	}
	return f
}

func (f *cellFormat) appendString(dst []byte, s string) []byte {
	if f.json {
		return appendJSONString(dst, s)
	}
	return appendCSVField(dst, s)
}

// raw reports whether every cell of an arena chunk encodes as its own
// bytes (between quotes, for JSON). The scan takes eight bytes a step:
// a word with no byte that is non-ASCII, below 0x20 or one of the
// format's excluded bytes is plain; any other is settled byte by byte
// against plain[], as is the tail, so the verdict is the table's.
func (f *cellFormat) raw(c *Chunk) bool {
	d := c.Data
	for ; len(d) >= 8; d = d[8:] {
		w := binary.LittleEndian.Uint64(d)
		hit := w | (w-0x20*lsbs)&^w
		for _, x := range f.excluded {
			t := w ^ x
			hit |= (t - lsbs) &^ t
		}
		if hit&msbs != 0 && !f.allPlain(d[:8]) {
			return false
		}
	}
	if !f.allPlain(d) {
		return false
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

// lsbs and msbs are the lowest and the highest bit of every byte of a
// word.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

func (f *cellFormat) allPlain(d []byte) bool {
	for _, b := range d {
		if !f.plain[b] {
			return false
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

// padW is the width of a padded store: a short constant (a prefix, a
// date, a rendered value) sits zero-padded in padW bytes and reaches
// the row as one fixed-size copy that the write index then passes by
// the constant's true length.
const padW = 16

// rowField is one field of an emitted row.
type rowField struct {
	name string // column header, or JSON key
	pre  []byte // what precedes the cell: the separator, or `,"key":`
	kind int
	pt   *PropertyTable
	ids  []uint32 // fieldInt without pt: an edge's endpoints

	pre16 [padW]byte // pre, zero-padded, when it fits
	// fieldDate: the rendered days [tabLo, tabLo+tabDays), width bytes
	// each, then padW bytes of padding; any other day is rendered by
	// arithmetic. fieldCoded with no cell over padW bytes: the rendered
	// cell of each code, zero-padded to padW.
	tab     []byte
	tabLo   int64
	tabDays uint64
	width   int      // fieldDate: every cell; fieldCoded: the widest
	lens    []uint8  // fieldCoded with tab: the true length of each cell
	cells   [][]byte // fieldCoded without: the rendered cell of each code

	// cur holds the rows the kernel is on (load) — for a deferred column,
	// filled into scratch.
	cur, scratch Chunk
	curRaw       bool // fieldArena: cur's cells are written as raw spans
	unchecked    bool // fieldDate: days are checked against the domain chunk by chunk
}

// field plans the cells of the column pt.
func (f *cellFormat) field(pt *PropertyTable) (rowField, error) {
	rf := rowField{name: shortName(pt.Name), pt: pt}
	switch {
	case pt.Kind == KindInt:
		rf.kind = fieldInt
	case pt.Kind == KindFloat:
		rf.kind = fieldFloat
	case pt.Kind == KindDate:
		rf.kind, rf.width = fieldDate, len(f.appendDate(nil, 0))
		// The table spans the days a stored column holds; a deferred one
		// has no rows to scan, so it spans what the schema told
		// (SetDateBounds) and the days are checked as they are filled.
		lo, hi, known := MaxDate, MinDate, pt.n > 0
		if d := pt.def; pt.Deferred() {
			rf.unchecked = true
			lo, hi, known = max(d.dateLo, MinDate), min(d.dateHi, MaxDate), d.dateKnown
		} else {
			for id, d := range pt.ints {
				if d < MinDate || d > MaxDate {
					return rf, dateDomainError(pt, int64(id), d)
				}
				lo, hi = min(lo, d), max(hi, d)
			}
		}
		if known && lo <= hi && hi-lo < maxDateTable {
			rf.tabLo, rf.tabDays = lo, uint64(hi-lo+1)
			rf.tab = make([]byte, 0, int(rf.tabDays)*rf.width+padW)
			for d := lo; d <= hi; d++ {
				rf.tab = f.appendDate(rf.tab, d)
			}
			rf.tab = rf.tab[:cap(rf.tab)]
		}
	case pt.dict != nil:
		rf.kind = fieldCoded
		rf.cells = make([][]byte, len(pt.dict))
		var all []byte
		for code, s := range pt.dict {
			start := len(all)
			all = f.appendString(all, s)
			rf.cells[code] = all[start:len(all):len(all)]
			rf.width = max(rf.width, len(all)-start)
		}
		if rf.width <= padW {
			rf.tab, rf.lens = make([]byte, len(rf.cells)*padW), make([]uint8, len(rf.cells))
			for code, cell := range rf.cells {
				rf.lens[code] = uint8(copy(rf.tab[code*padW:], cell))
			}
			rf.cells = nil
		}
	default:
		rf.kind = fieldArena
	}
	return rf, nil
}

func dateDomainError(pt *PropertyTable, id, day int64) error {
	return fmt.Errorf("table: property %s row %d: day %d is outside the date domain %s … %s",
		pt.Name, id, day, FormatDate(MinDate), FormatDate(MaxDate))
}

// load points the field at rows [lo, hi) of its column; fill gains the
// time a deferred column's fill took. Endpoint ids are widened into the
// field's scratch, so they render through the int cell.
func (rf *rowField) load(f *cellFormat, lo, hi int64, fill *time.Duration) (err error) {
	if rf.pt == nil {
		if rf.ids != nil {
			ints := zeroed(rf.scratch.Ints, int(hi-lo))
			for i, id := range rf.ids[lo:hi] {
				ints[i] = int64(id)
			}
			rf.scratch.Ints, rf.cur.Ints = ints, ints
		}
		return nil
	}
	if rf.cur, err = rf.pt.read(lo, hi, &rf.scratch, fill); err != nil {
		return err
	}
	switch {
	case rf.kind == fieldArena:
		rf.curRaw = f.raw(&rf.cur)
	case rf.unchecked:
		for i, d := range rf.cur.Ints {
			if d < MinDate || d > MaxDate {
				return dateDomainError(rf.pt, lo+int64(i), d)
			}
		}
	}
	return nil
}

func (f *cellFormat) appendDate(dst []byte, days int64) []byte {
	if !f.json {
		return appendDate(dst, days)
	}
	return append(appendDate(append(dst, '"'), days), '"')
}

// store16 copies the padW bytes at src to b[p:] as one fixed-size move.
func store16(b []byte, p int, src []byte) {
	*(*[padW]byte)(b[p:]) = *(*[padW]byte)(src)
}

// writeRows renders head, then n rows of fields each closed by eol
// (one or two bytes), under the contract in the file comment: b is the
// whole buffer, p the write index.
func writeRows(w io.Writer, f *cellFormat, head []byte, fields []rowField, n int64, eol string) error {
	reserve := len(eol) + padW
	for i := range fields {
		rf := &fields[i]
		copy(rf.pre16[:], rf.pre)
		reserve += len(rf.pre) + rf.width
		switch rf.kind {
		case fieldSeq, fieldInt:
			reserve += intWidth
		case fieldFloat:
			reserve += floatWidth
		}
	}
	e0, e1 := eol[0], eol[len(eol)-1]

	bp := getEncBuf()
	defer putEncBuf(bp)
	b := (*bp)[:cap(*bp)]
	if len(b) < len(head)+reserve {
		b = make([]byte, len(head)+reserve)
	}
	p := copy(b, head)
	var err error
	var fill time.Duration
	defer func() { noteFill(w, fill) }()
	for lo := int64(0); lo < n; lo += ChunkRows {
		rows := int(min(ChunkRows, n-lo))
		for i := range fields {
			if err := fields[i].load(f, lo, lo+int64(rows), &fill); err != nil {
				return err
			}
		}
		for r := 0; r < rows; r++ {
			if len(b)-p < reserve {
				b = growRow(b, p, reserve)
			}
			for i := range fields {
				rf := &fields[i]
				if len(rf.pre) <= padW {
					store16(b, p, rf.pre16[:])
					p += len(rf.pre)
				} else {
					p += copy(b[p:], rf.pre)
				}
				switch rf.kind {
				case fieldSeq, fieldInt:
					v := lo + int64(r)
					if rf.kind == fieldInt {
						v = rf.cur.Ints[r]
					}
					// putInt's one-store case by hand: putInt is past the
					// inliner's budget with or without it (cost 167 of 80
					// as a wrapper), and the call costs 3.2 ns a row on
					// the edge shape (39.5 against 36.3, BenchmarkEncodeCSV).
					if uint64(v) < 1e8 {
						word, k := lead(digits8(uint64(v)))
						binary.LittleEndian.PutUint64(b[p:], word)
						p += k
					} else {
						p = putInt(b, p, v)
					}
				case fieldFloat:
					// Appending to b[p:p] writes in place: the reserve
					// left floatWidth bytes there.
					var cell []byte
					if !f.json {
						cell = strconv.AppendFloat(b[p:p], rf.cur.Floats[r], 'g', -1, 64)
					} else if cell, err = appendJSONFloat(b[p:p], rf.cur.Floats[r]); err != nil {
						return fmt.Errorf("table: property %s row %d: %w", rf.pt.Name, lo+int64(r), err)
					}
					p += len(cell)
				case fieldDate:
					if day := uint64(rf.cur.Ints[r] - rf.tabLo); day < rf.tabDays {
						store16(b, p, rf.tab[int(day)*rf.width:])
						p += rf.width
					} else {
						p += len(f.appendDate(b[p:p], rf.cur.Ints[r]))
					}
				case fieldCoded:
					code := rf.cur.Codes[r]
					if rf.tab == nil {
						p += copy(b[p:], rf.cells[code])
					} else {
						store16(b, p, rf.tab[int(code)*padW:])
						p += int(rf.lens[code])
					}
				case fieldArena:
					cell := rf.cur.Data[rf.cur.Offs[r]:rf.cur.Offs[r+1]]
					if !rf.curRaw {
						// Only the encoder knows what escaping adds: append
						// to b[:p], adopt the buffer that comes back and
						// restore the reserve for the rest of the row.
						out := f.appendString(b[:p], string(cell))
						b, p = out[:cap(out)], len(out)
						if len(b)-p < reserve {
							b = growRow(b, p, reserve)
						}
						continue
					}
					if need := reserve + 2 + len(cell); len(b)-p < need {
						b = growRow(b, p, need)
					}
					if f.json {
						b[p] = '"'
						p += 1 + copy(b[p+1:], cell)
						b[p] = '"'
						p++
					} else {
						p += copy(b[p:], cell)
					}
				}
			}
			b[p], b[p+len(eol)-1] = e0, e1
			p += len(eol)
			if p >= encFlushAt {
				if _, err := w.Write(b[:p]); err != nil {
					return err
				}
				p = 0
			}
		}
	}
	_, err = w.Write(b[:p])
	*bp = b[:0]
	return err
}

// growRow returns a buffer that keeps b[:p] and has need bytes past p.
func growRow(b []byte, p, need int) []byte {
	nb := make([]byte, max(2*len(b), p+need))
	copy(nb, b[:p])
	return nb
}

// intWidth and floatWidth bound a rendered int64 (the sign and 19
// digits) and a rendered float64 ('g' and JSON's 'f'/'e' alike: at most
// 17 significant digits, 5 leading zeros or 21 integer digits, a sign,
// a point and an exponent).
const (
	intWidth   = 20
	floatWidth = 32
)

// putInt writes v in decimal at b[p:], as strconv.AppendInt does, and
// returns the index past it: the sign, the leading one to eight digits,
// then whole groups of eight. Its stores are eight bytes wide, so b
// needs intWidth bytes past p, and eight for the shortest number.
func putInt(b []byte, p int, v int64) int {
	u := uint64(v)
	if v < 0 {
		b[p] = '-'
		p++
		u = -u
	}
	top := u
	switch {
	case u >= 1e16:
		top = u / 1e16
	case u >= 1e8:
		top = u / 1e8
	}
	w, n := lead(digits8(top))
	binary.LittleEndian.PutUint64(b[p:], w)
	p += n
	if u >= 1e16 {
		binary.LittleEndian.PutUint64(b[p:], digits8(u/1e8%1e8)|ascii0)
		p += 8
	}
	if u >= 1e8 {
		binary.LittleEndian.PutUint64(b[p:], digits8(u%1e8)|ascii0)
		p += 8
	}
	return p
}

const ascii0 = 0x3030303030303030 // "00000000"

// lead turns the eight digits d of a number into its decimal rendering
// without leading zeros, as the low n bytes of a word: the digits
// shifted down by the zeros in front.
func lead(d uint64) (w uint64, n int) {
	zeros := bits.TrailingZeros64(d|1<<63) / 8
	return (d | ascii0) >> (8 * zeros), 8 - zeros
}

// digits8 returns the eight decimal digits of u < 1e8, one per byte,
// the most significant in the lowest byte — memory order for a
// little-endian store. The two four-digit halves are divided side by
// side in the halves of one word: by 100 (×5243 >> 19, exact below
// 43699), then the four two-digit numbers by 10 (×103 >> 10, exact
// below 179).
func digits8(u uint64) uint64 {
	m := u/10000 | u%10000<<32
	q := m * 5243 >> 19 & 0x0000007f_0000007f
	m = q | (m-q*100)<<16
	q = m * 103 >> 10 & 0x000f_000f_000f_000f
	return q | (m-q*10)<<8
}
