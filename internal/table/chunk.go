package table

import (
	"fmt"
	"math"
	"time"
)

// ChunkRows is the number of rows the engine hands a property generator
// per Fill call, and the granularity of arena string storage.
const ChunkRows = 8192

// Chunk is a run of consecutive rows of one column as typed slices: what
// a property generator fills, and how it reads the columns it depends
// on. One group of fields is set, by the column's kind and layout.
type Chunk struct {
	Ints   []int64   // int and date columns
	Floats []float64 // float columns

	// Coded strings: cell i is Dict[Codes[i]]. Dict is the whole
	// column's value list, shared by every chunk.
	Codes []uint32
	Dict  []string

	// Arena strings: cell i is Data[Offs[i]:Offs[i+1]].
	Offs []uint32
	Data []byte
}

// Str returns string cell i ("" when the chunk is not a string column).
func (c *Chunk) Str(i int) string {
	switch {
	case c.Dict != nil:
		return c.Dict[c.Codes[i]]
	case c.Offs != nil:
		return string(c.Data[c.Offs[i]:c.Offs[i+1]])
	}
	return ""
}

// Grow empties an arena chunk and gives it room for rows cells of about
// size bytes in total, so that filling it allocates twice, not once per
// cell — and not at all when the chunk is a reader's scratch that has
// held as much before (ReadChunk).
func (c *Chunk) Grow(rows, size int) {
	if cap(c.Offs) <= rows {
		c.Offs = make([]uint32, 0, rows+1)
	}
	if cap(c.Data) < size {
		c.Data = make([]byte, 0, size)
	}
	c.Offs, c.Data = append(c.Offs[:0], 0), c.Data[:0]
}

// EndCell closes the arena cell whose bytes were appended to Data.
func (c *Chunk) EndCell() {
	if len(c.Offs) == 0 {
		c.Offs = append(c.Offs, 0)
	}
	c.Offs = append(c.Offs, uint32(len(c.Data)))
}

// AppendStr appends s as the next arena cell.
func (c *Chunk) AppendStr(s string) {
	c.Data = append(c.Data, s...)
	c.EndCell()
}

// Chunk returns rows [lo, hi) as a view sharing the table's storage. On
// an arena column the range must lie within one ChunkRows-aligned chunk.
func (pt *PropertyTable) Chunk(lo, hi int64) Chunk {
	pt.need()
	switch {
	case pt.Kind == KindFloat:
		return Chunk{Floats: pt.floats[lo:hi]}
	case pt.Kind != KindString:
		return Chunk{Ints: pt.ints[lo:hi]}
	case pt.dict != nil:
		return Chunk{Codes: pt.codes[lo:hi], Dict: pt.dict}
	}
	a := &pt.arenas[lo/ChunkRows]
	first := lo % ChunkRows
	return Chunk{Offs: a.Offs[first : first+hi-lo+1], Data: a.Data}
}

// FillChunk hands fill the rows [lo, hi) to write — typed slices into
// the table's storage, or an empty arena chunk that is stored once
// fill has appended hi-lo cells to it. lo must be a multiple of
// ChunkRows and hi at most lo+ChunkRows; disjoint ranges may be filled
// concurrently.
func (pt *PropertyTable) FillChunk(lo, hi int64, fill func(dst *Chunk) error) error {
	if pt.arenas == nil {
		dst := pt.Chunk(lo, hi)
		return fill(&dst)
	}
	var dst Chunk
	if err := fill(&dst); err != nil {
		return err
	}
	if err := pt.checkArena(&dst, lo, hi); err != nil {
		return err
	}
	pt.arenas[lo/ChunkRows] = dst
	return nil
}

// checkArena checks a filled arena chunk: one cell per row, in bytes
// its 32-bit offsets can address.
func (pt *PropertyTable) checkArena(dst *Chunk, lo, hi int64) error {
	if int64(len(dst.Offs)) != hi-lo+1 || len(dst.Data) > math.MaxUint32 {
		return fmt.Errorf("table: %s rows [%d,%d) were filled with %d cells in %d bytes", pt.Name, lo, hi, len(dst.Offs)-1, len(dst.Data))
	}
	return nil
}

// ReadChunk returns rows [lo, hi) of the column — the one read every
// encoder makes. A stored column gives a view of its storage, as Chunk
// does; a deferred one is filled into scratch, whose slices are reused
// from call to call, and the result holds until the next call with that
// scratch. lo must be a multiple of ChunkRows and hi at most
// lo+ChunkRows. It never materialises the column.
func (pt *PropertyTable) ReadChunk(lo, hi int64, scratch *Chunk) (Chunk, error) {
	if !pt.Deferred() {
		return pt.Chunk(lo, hi), nil
	}
	rows := int(hi - lo)
	switch {
	case pt.Kind == KindFloat:
		scratch.Floats = zeroed(scratch.Floats, rows)
	case pt.Kind != KindString:
		scratch.Ints = zeroed(scratch.Ints, rows)
	case pt.dict != nil:
		scratch.Codes, scratch.Dict = zeroed(scratch.Codes, rows), pt.dict
	default:
		scratch.Offs, scratch.Data = scratch.Offs[:0], scratch.Data[:0]
	}
	if err := pt.def.fill(scratch, lo, hi); err != nil {
		return Chunk{}, err
	}
	if pt.Kind == KindString && pt.dict == nil {
		if err := pt.checkArena(scratch, lo, hi); err != nil {
			return Chunk{}, err
		}
	}
	return *scratch, nil
}

// read is ReadChunk with the time a deferred column's fill took added
// to *fill: two clock reads a chunk, none for a stored column.
func (pt *PropertyTable) read(lo, hi int64, scratch *Chunk, fill *time.Duration) (Chunk, error) {
	if !pt.Deferred() {
		return pt.Chunk(lo, hi), nil
	}
	start := time.Now()
	c, err := pt.ReadChunk(lo, hi, scratch)
	*fill += time.Since(start)
	return c, err
}

// zeroed returns s resized to n zero cells — what a fresh column holds
// before its fill, which a generator may rely on (constant writes
// nothing: code 0 is its value).
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Gather copies the rows idx names, in that order, into the chunk
// `into`, whose slices it reuses. It is how an edge property reads an
// endpoint's node property: idx is a run of an edge table's endpoints.
func (pt *PropertyTable) Gather(idx []uint32, into *Chunk) {
	pt.need()
	switch {
	case pt.Kind == KindFloat:
		into.Floats = gather(into.Floats, pt.floats, idx)
	case pt.Kind != KindString:
		into.Ints = gather(into.Ints, pt.ints, idx)
	case pt.dict != nil:
		into.Codes, into.Dict = gather(into.Codes, pt.codes, idx), pt.dict
	default:
		into.Offs, into.Data = append(into.Offs[:0], 0), into.Data[:0]
		for _, id := range idx {
			a := &pt.arenas[id/ChunkRows]
			into.Data = append(into.Data, a.Data[a.Offs[id%ChunkRows]:a.Offs[id%ChunkRows+1]]...)
			into.EndCell()
		}
	}
}

func gather[T any](dst, src []T, idx []uint32) []T {
	if cap(dst) < len(idx) {
		dst = make([]T, len(idx))
	}
	dst = dst[:len(idx)]
	for i, id := range idx {
		dst[i] = src[id]
	}
	return dst
}
