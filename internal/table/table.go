// Package table implements DataSynth's tabular data model (paper
// Section 4.1): Property Tables and Edge Tables stored as typed columns.
//
// A Property Table (PT) is a 2-column table [id:int64, value:T] holding
// one property for one node or edge type; ids are dense in [0, n).
// An Edge Table (ET) is a 3-column table [id, tail, head] holding the
// structure of one edge type; edge ids are dense in [0, m) and endpoint
// ids are dense per endpoint type. In memory an endpoint id is a uint32,
// 8 bytes an edge for both columns, so a node type holds at most
// MaxNodes instances; the files are unchanged by that — CSV and JSON
// lines write decimals, the columnar format 8-byte ids.
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
// # Deferred columns
//
// A column is a pure function of its row ids, so one that nothing reads
// before the files are written does not have to exist in memory. The
// engine builds such a column with NewDeferredTable: the same
// PropertyTable type, holding a fill closure (FillFunc) instead of
// storage. Readers come in two kinds.
//
//   - The encoders read every column through one chunk read,
//     ReadChunk(lo, hi, scratch): a view for a stored column, a fill of
//     rows [lo, hi) into the caller's reused scratch for a deferred one.
//     An export therefore never stores a deferred column — its peak is
//     one chunk per column being written — and leaves it deferred. The
//     columnar writer needs a string block's byte length before its first
//     byte, so it alone fills a deferred string column into a temporary
//     copy, dropped after the block.
//   - Random-access readers (Int, Float, String, Value, Format, Ints,
//     Floats, Strings, Coded, Chunk, Gather, and the setters) have no
//     chunk to be handed: the first one on a deferred column materialises
//     it, once, under a sync.Once, and every reader after that sees a
//     stored column. They have no error to return either; a fill that
//     fails panics the reader with the fill's error (Materialize returns
//     it instead).
//
// Both give the same values, and the same bytes on disk
// (TestDeferredEqualsStored). A fill runs on whichever goroutine reads,
// so a FillFunc must be safe to call concurrently. A deferred fill that
// fails during an export fails that export like any write error: temp
// files removed, nothing committed.
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
// length, and only the bytes below the write index are ever flushed;
// it takes its columns ChunkRows rows at a time (ReadChunk).
// Every file goes to disk through one sink that counts its bytes,
// stops the table at the next flush once the context is done, and on
// request (ExportOptions.Digest) takes the file's SHA-256 from the
// same buffers. Tables are independent, so Export writes one file per
// table, up to GOMAXPROCS of them at a time (par.ForEachCtx), and
// commits the directory atomically — every file stages as a temp file
// and the set renames into place only after all tables encoded, so a
// failed export never leaves a partial directory. File bytes do not
// depend on how many files are written at once.
package table

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"datasynth/internal/par"
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
// columns use one of the two layouts in the package doc. A deferred
// column (package doc) has a fill closure in place of the slices until
// a random-access reader materialises it.
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

	def *deferral // set on a column built by NewDeferredTable
}

// FillFunc writes rows [lo, hi) of a column into dst, whose slices hold
// hi-lo cells (an arena string chunk arrives empty). It must be a pure
// function of the range — the engine's closure over a property
// generator, its stream and its dependency columns — and safe to call
// from any goroutine: a deferred column is filled by whoever reads it.
type FillFunc func(dst *Chunk, lo, hi int64) error

// deferral is what a deferred column has in place of storage.
type deferral struct {
	fill FillFunc
	// once guards Materialize; stored is set after the storage slices
	// were published, err when filling them failed.
	once   sync.Once
	stored atomic.Bool
	err    error
	// The days a date column is expected to take, when the schema tells
	// (SetDateBounds): what sizes the encoders' lookup table in place of
	// the scan a stored column gets.
	dateLo, dateHi int64
	dateKnown      bool
}

// NewPropertyTable allocates a PT of n zero-valued rows. A string table
// built this way is coded over a private value list that SetString
// extends, so it can be written cell by cell.
func NewPropertyTable(name string, kind ValueKind, n int64) *PropertyTable {
	pt := &PropertyTable{Name: name, Kind: kind, n: n}
	if kind == KindString {
		pt.dict, pt.index = []string{""}, map[string]uint32{"": 0}
	}
	pt.alloc()
	return pt
}

// NewStringTable allocates a string PT to be filled chunk by chunk
// (FillChunk): coded over the shared value list dict, or — dict nil —
// in the arena layout.
func NewStringTable(name string, n int64, dict []string) *PropertyTable {
	pt := &PropertyTable{Name: name, Kind: KindString, n: n, dict: dict}
	pt.alloc()
	return pt
}

// alloc gives the column its n zero-valued rows of storage.
func (pt *PropertyTable) alloc() {
	switch {
	case pt.Kind == KindFloat:
		pt.floats = make([]float64, pt.n)
	case pt.Kind != KindString:
		pt.ints = make([]int64, pt.n)
	case pt.dict != nil:
		pt.codes = make([]uint32, pt.n)
	default:
		pt.arenas = make([]Chunk, (pt.n+ChunkRows-1)/ChunkRows)
	}
}

// NewDeferredTable returns an n-row column with no storage: fill is
// what produces its rows. A string column is coded over dict, or — dict
// nil — in the arena layout. See "Deferred columns" in the package doc.
func NewDeferredTable(name string, kind ValueKind, n int64, dict []string, fill FillFunc) *PropertyTable {
	return &PropertyTable{Name: name, Kind: kind, n: n, dict: dict, def: &deferral{fill: fill}}
}

// Deferred reports whether the column still has no storage: it was
// built by NewDeferredTable and nothing has materialised it.
func (pt *PropertyTable) Deferred() bool { return pt.def != nil && !pt.def.stored.Load() }

// SetDateBounds tells the encoders which days a date column from
// NewDeferredTable is expected to take, lo ≤ hi: they render that range
// once into a lookup table, and any other day by arithmetic.
func (pt *PropertyTable) SetDateBounds(lo, hi int64) {
	pt.def.dateLo, pt.def.dateHi, pt.def.dateKnown = lo, hi, true
}

// Materialize fills a deferred column into storage, chunks in parallel
// (par.ForEach), once: later calls, and calls on a column that was
// never deferred, do nothing. A fill error leaves the column deferred
// and is returned by every call.
func (pt *PropertyTable) Materialize() error {
	d := pt.def
	if d == nil {
		return nil
	}
	d.once.Do(func() {
		var s *PropertyTable
		if s, d.err = pt.filled(); d.err == nil {
			pt.ints, pt.floats, pt.codes, pt.arenas = s.ints, s.floats, s.codes, s.arenas
			d.stored.Store(true)
		}
	})
	return d.err
}

// filled returns a stored copy of the deferred column pt: the one loop
// that runs a FillFunc over a whole column, a chunk at a time, in any
// order. A failing or panicking chunk fails the fill with the lowest
// chunk's error (par.ForEach).
func (pt *PropertyTable) filled() (*PropertyTable, error) {
	s := &PropertyTable{Name: pt.Name, Kind: pt.Kind, n: pt.n, dict: pt.dict}
	s.alloc()
	return s, par.ForEach(int((pt.n+ChunkRows-1)/ChunkRows), func(c int) error {
		lo := int64(c) * ChunkRows
		hi := min(lo+ChunkRows, pt.n)
		return s.FillChunk(lo, hi, func(dst *Chunk) error { return pt.def.fill(dst, lo, hi) })
	})
}

// need materialises a deferred column for a random-access reader. Those
// have no error to return, so a fill that fails panics with its error.
func (pt *PropertyTable) need() {
	if pt.Deferred() {
		if err := pt.Materialize(); err != nil {
			panic(err)
		}
	}
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
	pt.need()
	pt.ints[id] = v
}

// SetFloat sets row id. Panics if the kind is not float.
func (pt *PropertyTable) SetFloat(id int64, v float64) {
	if pt.Kind != KindFloat {
		panic(fmt.Sprintf("table: %s is %v, not float", pt.Name, pt.Kind))
	}
	pt.need()
	pt.floats[id] = v
}

// String returns the string value of row id. On an arena column the
// result is a fresh copy of the cell's bytes.
func (pt *PropertyTable) String(id int64) string {
	pt.need()
	if pt.dict != nil {
		return pt.dict[pt.codes[id]]
	}
	return pt.arenas[id/ChunkRows].Str(int(id % ChunkRows))
}

// Int returns the int/date value of row id.
func (pt *PropertyTable) Int(id int64) int64 {
	pt.need()
	return pt.ints[id]
}

// Float returns the float value of row id.
func (pt *PropertyTable) Float(id int64) float64 {
	pt.need()
	return pt.floats[id]
}

// Value returns row id boxed as any, independent of kind.
func (pt *PropertyTable) Value(id int64) any {
	switch pt.Kind {
	case KindString:
		return pt.String(id)
	case KindFloat:
		return pt.Float(id)
	default:
		return pt.Int(id)
	}
}

// Format renders row id as text: a date as yyyy-mm-dd, any other value
// as fmt.Sprint prints it, a string unquoted and unescaped.
func (pt *PropertyTable) Format(id int64) string {
	if pt.Kind == KindDate {
		return FormatDate(pt.Int(id))
	}
	return fmt.Sprint(pt.Value(id))
}

// Ints exposes the raw int column (int and date kinds). Callers must
// not resize it.
func (pt *PropertyTable) Ints() []int64 {
	pt.need()
	return pt.ints
}

// Floats exposes the raw float column.
func (pt *PropertyTable) Floats() []float64 {
	pt.need()
	return pt.floats
}

// Strings materialises the string column as a new []string — n string
// headers, plus one copy of each arena chunk's bytes. Per-row readers
// should prefer String, per-value ones Coded.
func (pt *PropertyTable) Strings() []string {
	if pt.Kind != KindString {
		return nil
	}
	pt.need()
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
func (pt *PropertyTable) Coded() ([]uint32, []string) {
	if pt.dict != nil {
		pt.need()
	}
	return pt.codes, pt.dict
}

// MaxNodes is the largest instance count of a node type: every endpoint
// id fits a uint32. core.ValidateSchema refuses a larger declared count,
// and the engine a larger inferred one, before any table exists.
const MaxNodes = math.MaxUint32

// EdgeTable is the dense [id, tail, head] table of one edge type. Edge
// id i connects Tail[i] -> Head[i]; ids are implicit row numbers.
type EdgeTable struct {
	Name string // edge type name
	Tail []uint32
	Head []uint32
}

// NewEdgeTable allocates an ET with capacity hint m.
func NewEdgeTable(name string, m int64) *EdgeTable {
	return &EdgeTable{Name: name, Tail: make([]uint32, 0, m), Head: make([]uint32, 0, m)}
}

// Len returns the number of edges.
func (et *EdgeTable) Len() int64 { return int64(len(et.Tail)) }

// Add appends the edge tail -> head and returns its id. An endpoint
// outside [0, 2^32) panics instead of being truncated: generators only
// emit ids below a node count the engine has bounded by MaxNodes.
func (et *EdgeTable) Add(tail, head int64) int64 {
	if uint64(tail)|uint64(head) > math.MaxUint32 {
		panic(idRangeError{et.Name, tail, head})
	}
	et.Tail = append(et.Tail, uint32(tail))
	et.Head = append(et.Head, uint32(head))
	return int64(len(et.Tail) - 1)
}

// idRangeError is what Add panics with on an endpoint outside the
// uint32 id range: a value formatted only when printed, which keeps Add
// within the inliner's budget — every generator's inner loop calls it.
type idRangeError struct {
	name       string
	tail, head int64
}

func (e idRangeError) Error() string {
	return fmt.Sprintf("table: %s edge (%d,%d) has an endpoint outside the uint32 id range", e.name, e.tail, e.head)
}

// MaxNode returns the largest endpoint id plus one (i.e. the implied
// node-domain size), or 0 for an empty table.
func (et *EdgeTable) MaxNode() int64 {
	top := int64(-1)
	for i := range et.Tail {
		top = max(top, int64(et.Tail[i]), int64(et.Head[i]))
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
		if nTail > 0 && int64(et.Tail[i]) >= nTail {
			return fmt.Errorf("table: %s edge %d has tail %d outside [0,%d)", et.Name, i, et.Tail[i], nTail)
		}
		if nHead > 0 && int64(et.Head[i]) >= nHead {
			return fmt.Errorf("table: %s edge %d has head %d outside [0,%d)", et.Name, i, et.Head[i], nHead)
		}
	}
	return nil
}

// RemapTails rewrites every tail id through f. Used by the matching
// step to substitute structure-node ids with property-row ids, which
// lie below a node count of at most MaxNodes.
func (et *EdgeTable) RemapTails(f []uint32) { remap(et.Tail, f) }

// RemapHeads rewrites every head id through f.
func (et *EdgeTable) RemapHeads(f []uint32) { remap(et.Head, f) }

func remap(ids, f []uint32) {
	for i, v := range ids {
		ids[i] = f[v]
	}
}

// Remap rewrites both endpoints through f (monopartite matching).
func (et *EdgeTable) Remap(f []uint32) {
	et.RemapTails(f)
	et.RemapHeads(f)
}
