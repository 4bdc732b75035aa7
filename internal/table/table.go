// Package table implements DataSynth's tabular data model (paper
// Section 4.1): Property Tables and Edge Tables stored as typed columns.
//
// A Property Table (PT) is a 2-column table [id:int64, value:T] holding
// one property for one node or edge type; ids are dense in [0, n).
// An Edge Table (ET) is a 3-column table [id:int64, tail:int64,
// head:int64] holding the structure of one edge type; edge ids are dense
// in [0, m) and endpoint ids are dense per endpoint type.
//
// Tables are chunked so generation can proceed in parallel: each worker
// fills its own id range (PropertyTable.FillChunk) and the chunks are
// stitched without copying.
//
// # String columns
//
// A string column is stored in one of two layouts, never as a []string.
// Coded: one uint32 code per row into a value list the whole column
// shares — what a finite-vocabulary generator (categorical, zipf,
// dictionary, constant, a fused column, an endpoint-copy of one) fills,
// at 4 bytes a row, and what lets the matcher's labels and the encoders'
// rendered cells be worked out per distinct value. Arena: per chunk of
// ChunkRows rows, the cells' bytes back to back plus their offsets — the
// layout a columnar file stores — for open-ended values (text, uuid,
// multi-categorical, a loaded .dsc file). String(id) reads either;
// Strings() materialises a fresh []string, one header per row, and is
// for callers that really want every row as a Go string.
//
// # Export
//
// A generated Dataset exports through one pipeline, Dataset.Export,
// in three formats: CSV (bulk-loader layout, byte-identical to
// encoding/csv), JSON-lines (byte-identical to encoding/json), and a
// binary columnar format (.dsc, see columnar.go) whose typed column
// blocks round-trip every value bit for bit and load back with
// OpenColumnar. CSV and JSON-lines rows come from one kernel (rows.go)
// that writes each byte once, by index into a pooled buffer: room for
// a row's worst case is reserved once per row, short constants land as
// fixed 16-byte stores that the write index passes by their true
// length, and only the bytes below the write index are ever flushed.
// Every file goes to disk through one sink that counts its bytes,
// stops the table at the next flush once the context is done, and on
// request (ExportOptions.Digest) takes the file's SHA-256 from the
// same buffers. Tables are independent, so Export writes one file per
// table on a bounded worker pool (ExportOptions.Workers) and commits
// the directory atomically — every file stages as a temp file and the
// set renames into place only after all tables encoded, so a failed
// export never leaves a partial directory. File bytes are identical at
// every worker count.
package table

import (
	"fmt"
	"slices"
)

// ValueKind enumerates the value types a Property Table can hold.
type ValueKind int

// Supported property value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindDate // days since Unix epoch, stored as int64
)

// String returns the DSL spelling of the kind.
func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// ParseValueKind parses a DSL type name.
func ParseValueKind(s string) (ValueKind, error) {
	switch s {
	case "string":
		return KindString, nil
	case "int", "long":
		return KindInt, nil
	case "float", "double":
		return KindFloat, nil
	case "date":
		return KindDate, nil
	default:
		return 0, fmt.Errorf("table: unknown value kind %q", s)
	}
}

// PropertyTable is a dense [id, value] table for one <type, property>
// pair. Row i holds the value of instance id i, so the id column is
// implicit. Int, date and float columns are one typed slice; string
// columns use one of the two layouts in the package doc.
type PropertyTable struct {
	Name string // "<TypeName>.<property>"
	Kind ValueKind

	n      int64
	ints   []int64
	floats []float64
	codes  []uint32          // coded strings: row i is dict[codes[i]]
	dict   []string          // non-nil marks the coded layout
	index  map[string]uint32 // dict's inverse, on tables SetString may write
	arenas []Chunk           // arena strings: arenas[c] holds rows [c*ChunkRows, (c+1)*ChunkRows)
}

// NewPropertyTable allocates a PT of n zero-valued rows. A string table
// built this way is coded over a private value list that SetString
// extends, so it can be written cell by cell.
func NewPropertyTable(name string, kind ValueKind, n int64) *PropertyTable {
	pt := &PropertyTable{Name: name, Kind: kind, n: n}
	if kind == KindString {
		pt = NewStringTable(name, n, []string{""})
		pt.index = map[string]uint32{"": 0}
	} else if kind == KindFloat {
		pt.floats = make([]float64, n)
	} else {
		pt.ints = make([]int64, n)
	}
	return pt
}

// NewStringTable allocates a string PT to be filled chunk by chunk
// (FillChunk): coded over the shared value list dict, or — dict nil —
// in the arena layout.
func NewStringTable(name string, n int64, dict []string) *PropertyTable {
	pt := &PropertyTable{Name: name, Kind: KindString, n: n, dict: dict}
	if dict != nil {
		pt.codes = make([]uint32, n)
	} else {
		pt.arenas = make([]Chunk, (n+ChunkRows-1)/ChunkRows)
	}
	return pt
}

// Len returns the number of rows.
func (pt *PropertyTable) Len() int64 { return pt.n }

// SetString sets row id of a string table from NewPropertyTable, adding
// v to the value list if it is new. Panics on any other table.
func (pt *PropertyTable) SetString(id int64, v string) {
	if pt.index == nil {
		panic(fmt.Sprintf("table: %s was not built by NewPropertyTable as a string table", pt.Name))
	}
	code, ok := pt.index[v]
	if !ok {
		code = uint32(len(pt.dict))
		pt.dict = append(pt.dict, v)
		pt.index[v] = code
	}
	pt.codes[id] = code
}

// SetInt sets row id for int and date tables.
func (pt *PropertyTable) SetInt(id int64, v int64) {
	if pt.Kind != KindInt && pt.Kind != KindDate {
		panic(fmt.Sprintf("table: %s is %v, not int/date", pt.Name, pt.Kind))
	}
	pt.ints[id] = v
}

// SetFloat sets row id. Panics if the kind is not float.
func (pt *PropertyTable) SetFloat(id int64, v float64) {
	if pt.Kind != KindFloat {
		panic(fmt.Sprintf("table: %s is %v, not float", pt.Name, pt.Kind))
	}
	pt.floats[id] = v
}

// String returns the string value of row id. On an arena column the
// result is a fresh copy of the cell's bytes.
func (pt *PropertyTable) String(id int64) string {
	if pt.dict != nil {
		return pt.dict[pt.codes[id]]
	}
	return pt.arenas[id/ChunkRows].Str(int(id % ChunkRows))
}

// Int returns the int/date value of row id.
func (pt *PropertyTable) Int(id int64) int64 { return pt.ints[id] }

// Float returns the float value of row id.
func (pt *PropertyTable) Float(id int64) float64 { return pt.floats[id] }

// Value returns row id boxed as any, independent of kind.
func (pt *PropertyTable) Value(id int64) any {
	switch pt.Kind {
	case KindString:
		return pt.String(id)
	case KindFloat:
		return pt.floats[id]
	default:
		return pt.ints[id]
	}
}

// Format renders row id as its CSV representation.
func (pt *PropertyTable) Format(id int64) string {
	if pt.Kind == KindDate {
		return FormatDate(pt.ints[id])
	}
	return fmt.Sprint(pt.Value(id))
}

// Ints exposes the raw int column (int and date kinds). Callers must
// not resize it.
func (pt *PropertyTable) Ints() []int64 { return pt.ints }

// Floats exposes the raw float column.
func (pt *PropertyTable) Floats() []float64 { return pt.floats }

// Strings materialises the string column as a new []string — n string
// headers, plus one copy of each arena chunk's bytes. Per-row readers
// should prefer String, per-value ones Coded.
func (pt *PropertyTable) Strings() []string {
	if pt.Kind != KindString {
		return nil
	}
	out := make([]string, pt.n)
	for i, code := range pt.codes {
		out[i] = pt.dict[code]
	}
	for c := range pt.arenas {
		a := &pt.arenas[c]
		data := string(a.Data)
		for i := 0; i+1 < len(a.Offs); i++ {
			out[c*ChunkRows+i] = data[a.Offs[i]:a.Offs[i+1]]
		}
	}
	return out
}

// Coded returns the codes and value list of a coded string column, or
// nils for any other column.
func (pt *PropertyTable) Coded() ([]uint32, []string) { return pt.codes, pt.dict }

// EdgeTable is the dense [id, tail, head] table of one edge type. Edge
// id i connects Tail[i] -> Head[i]; ids are implicit row numbers.
type EdgeTable struct {
	Name string // edge type name
	Tail []int64
	Head []int64
}

// NewEdgeTable allocates an ET with capacity hint m.
func NewEdgeTable(name string, m int64) *EdgeTable {
	return &EdgeTable{Name: name, Tail: make([]int64, 0, m), Head: make([]int64, 0, m)}
}

// Len returns the number of edges.
func (et *EdgeTable) Len() int64 { return int64(len(et.Tail)) }

// Add appends the edge tail -> head and returns its id.
func (et *EdgeTable) Add(tail, head int64) int64 {
	et.Tail = append(et.Tail, tail)
	et.Head = append(et.Head, head)
	return int64(len(et.Tail) - 1)
}

// MaxNode returns the largest endpoint id plus one (i.e. the implied
// node-domain size), or 0 for an empty table.
func (et *EdgeTable) MaxNode() int64 {
	top := int64(-1)
	for i := range et.Tail {
		top = max(top, et.Tail[i], et.Head[i])
	}
	return top + 1
}

// Validate checks structural invariants: endpoints within [0, nTail)
// and [0, nHead), and parallel column lengths. Pass nTail/nHead <= 0 to
// skip the respective bound check.
func (et *EdgeTable) Validate(nTail, nHead int64) error {
	if len(et.Tail) != len(et.Head) {
		return fmt.Errorf("table: %s has ragged columns (%d tails, %d heads)", et.Name, len(et.Tail), len(et.Head))
	}
	for i := range et.Tail {
		if et.Tail[i] < 0 || (nTail > 0 && et.Tail[i] >= nTail) {
			return fmt.Errorf("table: %s edge %d has tail %d outside [0,%d)", et.Name, i, et.Tail[i], nTail)
		}
		if et.Head[i] < 0 || (nHead > 0 && et.Head[i] >= nHead) {
			return fmt.Errorf("table: %s edge %d has head %d outside [0,%d)", et.Name, i, et.Head[i], nHead)
		}
	}
	return nil
}

// RemapTails rewrites every tail id through f. Used by the matching
// step to substitute structure-node ids with property-row ids.
func (et *EdgeTable) RemapTails(f []int64) {
	for i, t := range et.Tail {
		et.Tail[i] = f[t]
	}
}

// RemapHeads rewrites every head id through f.
func (et *EdgeTable) RemapHeads(f []int64) {
	for i, h := range et.Head {
		et.Head[i] = f[h]
	}
}

// Remap rewrites both endpoints through f (monopartite matching).
func (et *EdgeTable) Remap(f []int64) {
	et.RemapTails(f)
	et.RemapHeads(f)
}

// Clone returns a deep copy of the table.
func (et *EdgeTable) Clone() *EdgeTable {
	return &EdgeTable{Name: et.Name, Tail: slices.Clone(et.Tail), Head: slices.Clone(et.Head)}
}
