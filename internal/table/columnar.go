package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datasynth/internal/faultfs"
)

// Binary columnar export (.dsc — "DataSynth columns"): the bulk-load
// format the CSV connector is too slow for. One file per table, typed
// column blocks, no per-row framing, so a loader can mmap or stream a
// column straight into an array. The layout (all integers
// little-endian, uvarint = unsigned LEB128):
//
//	file   := magic "DSC1" | kind (1 byte: 'N' node, 'E' edge)
//	        | typeName (uvarint len + bytes) | rows uvarint
//	        | ncols uvarint
//	        | [kind=='E': block(tail int64s) block(head int64s)]
//	        | ncols × column
//	column := name (uvarint len + bytes, the full "<Type>.<prop>" name)
//	        | valueKind (1 byte: ValueKind)
//	        | block
//	block  := payload length uvarint | payload | crc32c(payload) uint32
//	payload:
//	  int/date: rows × int64
//	  float:    rows × IEEE-754 bits
//	  string:   (rows+1) × uint64 cumulative byte offsets, then the
//	            concatenated UTF-8 bytes (value i spans
//	            [offset[i], offset[i+1]))
//
// Every block carries a CRC-32C trailer so a truncated or corrupted
// file is detected at load, and the whole format round-trips exactly:
// OpenColumnar(WriteDirColumnar(d)) reproduces every value bit for bit
// (floats travel as raw bits, not decimal text).

// ColumnarExt is the file extension of the columnar format.
const ColumnarExt = ".dsc"

const columnarMagic = "DSC1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// columnar block encoding ----------------------------------------------------

// blockWriter streams one block: payload length first, then the payload
// through a pooled buffer and a running CRC, then the CRC trailer. The
// first write error sticks; close returns it.
type blockWriter struct {
	w   io.Writer
	crc uint32
	bp  *[]byte
	buf []byte
	err error
}

func newBlock(w io.Writer, payloadLen uint64) *blockWriter {
	b := &blockWriter{w: w, bp: getEncBuf()}
	_, b.err = w.Write(binary.AppendUvarint((*b.bp)[:0], payloadLen))
	b.buf = (*b.bp)[:0]
	return b
}

// raw writes what is buffered, then p itself.
func (b *blockWriter) raw(p []byte) {
	for _, part := range [2][]byte{b.buf, p} {
		if b.err == nil && len(part) > 0 {
			b.crc = crc32.Update(b.crc, castagnoli, part)
			_, b.err = b.w.Write(part)
		}
	}
	b.buf = b.buf[:0]
}

func (b *blockWriter) u64(v uint64) {
	if b.buf = binary.LittleEndian.AppendUint64(b.buf, v); len(b.buf) >= encFlushAt {
		b.raw(nil)
	}
}

func (b *blockWriter) str(s string) {
	if b.buf = append(b.buf, s...); len(b.buf) >= encFlushAt {
		b.raw(nil)
	}
}

func (b *blockWriter) close() error {
	if b.raw(nil); b.err == nil {
		_, b.err = b.w.Write(binary.LittleEndian.AppendUint32(b.buf, b.crc))
	}
	*b.bp = b.buf
	putEncBuf(b.bp)
	return b.err
}

// putWords appends vals as raw little-endian 8-byte integers — int64
// values, or uint32 endpoint ids widened to the file's int64 — flushing
// each time the buffer reaches encFlushAt. The buffer stays in a local
// across a slab of values: this loop and its float twin carry most of a
// columnar file.
func putWords[T int64 | uint32](b *blockWriter, vals []T) {
	for len(vals) > 0 {
		k := min(len(vals), (encFlushAt-len(b.buf)+7)/8)
		buf := b.buf
		for _, v := range vals[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if b.buf, vals = buf, vals[k:]; len(buf) >= encFlushAt {
			b.raw(nil)
		}
	}
}

// floats appends vals as raw IEEE-754 bit patterns.
func (b *blockWriter) floats(vals []float64) {
	for len(vals) > 0 {
		k := min(len(vals), (encFlushAt-len(b.buf)+7)/8)
		buf := b.buf
		for _, v := range vals[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if b.buf, vals = buf, vals[k:]; len(buf) >= encFlushAt {
			b.raw(nil)
		}
	}
}

// writeIDBlock emits an endpoint column as one int64 block.
func writeIDBlock(w io.Writer, ids []uint32) error {
	b := newBlock(w, uint64(8*len(ids)))
	putWords(b, ids)
	return b.close()
}

// writeStringBlock emits the offsets array followed by the
// concatenated bytes, from either string layout of a stored column; an
// arena chunk's bytes are already the file's.
func writeStringBlock(w io.Writer, pt *PropertyTable) error {
	var total uint64
	for _, code := range pt.codes {
		total += uint64(len(pt.dict[code]))
	}
	for c := range pt.arenas {
		total += uint64(len(pt.arenas[c].Data))
	}
	b := newBlock(w, uint64(8*(pt.n+1))+total)
	var off uint64
	b.u64(0)
	for _, code := range pt.codes {
		off += uint64(len(pt.dict[code]))
		b.u64(off)
	}
	for c := range pt.arenas {
		for _, end := range pt.arenas[c].Offs[1:] {
			b.u64(off + uint64(end))
		}
		off += uint64(len(pt.arenas[c].Data))
	}
	for _, code := range pt.codes {
		b.str(pt.dict[code])
	}
	for c := range pt.arenas {
		b.raw(pt.arenas[c].Data)
	}
	return b.close()
}

// writeColumn emits one property column. A fixed-width block's length
// is known from the row count, so its values stream through chunk by
// chunk (ReadChunk) and a deferred column is never held. A string block
// opens with its total byte length: a deferred string column is filled
// into a temporary stored copy that lives for the length of its block.
// fill gains the time spent in deferred fills.
func writeColumn(w io.Writer, pt *PropertyTable, fill *time.Duration) error {
	if err := writeName(w, pt.Name); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(pt.Kind)}); err != nil {
		return err
	}
	if pt.Kind == KindString {
		if pt.Deferred() {
			start := time.Now()
			tmp, err := pt.filled()
			if *fill += time.Since(start); err != nil {
				return err
			}
			pt = tmp
		}
		return writeStringBlock(w, pt)
	}
	b := newBlock(w, uint64(8*pt.n))
	var scratch Chunk
	for lo := int64(0); lo < pt.n; lo += ChunkRows {
		c, err := pt.read(lo, min(lo+ChunkRows, pt.n), &scratch, fill)
		if err != nil {
			b.close() // hands the block's buffer back; the file is abandoned
			return err
		}
		putWords(b, c.Ints)
		b.floats(c.Floats)
	}
	return b.close()
}

func writeName(w io.Writer, name string) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(name)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	_, err := io.WriteString(w, name)
	return err
}

func writeHeader(w io.Writer, kind byte, typeName string, rows int64, ncols int) error {
	if _, err := io.WriteString(w, columnarMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{kind}); err != nil {
		return err
	}
	if err := writeName(w, typeName); err != nil {
		return err
	}
	var scratch [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(rows))
	n += binary.PutUvarint(scratch[n:], uint64(ncols))
	_, err := w.Write(scratch[:n])
	return err
}

// WriteNodeColumnar writes one node type as a columnar file. count is
// the instance count (property tables, if any, must match it).
func WriteNodeColumnar(w io.Writer, typeName string, count int64, props []*PropertyTable) error {
	for _, pt := range props {
		if pt.Len() != count {
			return fmt.Errorf("table: property %s has %d rows, expected %d", pt.Name, pt.Len(), count)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, 'N', typeName, count, len(props)); err != nil {
		return err
	}
	return writeColumns(w, bw, props)
}

// writeColumns emits the property columns of a columnar file through bw
// and flushes it; w, the file's own writer, is told the fill time.
func writeColumns(w io.Writer, bw *bufio.Writer, props []*PropertyTable) error {
	var fill time.Duration
	defer func() { noteFill(w, fill) }()
	for _, pt := range props {
		if err := writeColumn(bw, pt, &fill); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeColumnar writes one edge type as a columnar file: tail and
// head blocks, then the edge property columns.
func WriteEdgeColumnar(w io.Writer, et *EdgeTable, props []*PropertyTable) error {
	for _, pt := range props {
		if pt.Len() != et.Len() {
			return fmt.Errorf("table: edge property %s has %d rows, edge table has %d", pt.Name, pt.Len(), et.Len())
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, 'E', et.Name, et.Len(), len(props)); err != nil {
		return err
	}
	if err := writeIDBlock(bw, et.Tail); err != nil {
		return err
	}
	if err := writeIDBlock(bw, et.Head); err != nil {
		return err
	}
	return writeColumns(w, bw, props)
}

// WriteDirColumnar exports the dataset as nodes_<Type>.dsc and
// edges_<Type>.dsc files. Tables are written concurrently and
// committed atomically; see Export.
func (d *Dataset) WriteDirColumnar(dir string) error {
	_, err := d.Export(dir, ExportOptions{Format: FormatColumnar})
	return err
}

// columnar decoding ----------------------------------------------------------

// ColumnarTable is one decoded columnar file.
type ColumnarTable struct {
	// TypeName is the node or edge type the file holds.
	TypeName string
	// Rows is the instance (or edge) count.
	Rows int64
	// Edges holds the structure for edge tables; nil for node tables.
	Edges *EdgeTable
	// Props are the property columns in file order.
	Props []*PropertyTable
}

// maxColumnarName, maxColumnarBlock and maxColumnarRows bound decoded
// lengths as a corruption guard, so a garbled header fails cleanly
// instead of panicking or attempting an absurd allocation.
const (
	maxColumnarName  = 1 << 16
	maxColumnarBlock = 1 << 34
	// maxColumnarRows keeps every fixed-width block under
	// maxColumnarBlock and, crucially, rows well inside int64, so
	// derived sizes (8*(rows+1), make lengths) cannot wrap negative.
	maxColumnarRows = maxColumnarBlock / 8
)

func readName(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxColumnarName {
		return "", fmt.Errorf("table: columnar name length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// blockLen reads a block's payload length, checking it against wantLen
// (-1: any) and the corruption guard.
func blockLen(r *bufio.Reader, wantLen int64, what string) (uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if wantLen >= 0 && n != uint64(wantLen) {
		return 0, fmt.Errorf("table: columnar %s block is %d bytes, want %d", what, n, wantLen)
	}
	if n > maxColumnarBlock {
		return 0, fmt.Errorf("table: columnar %s block length %d exceeds limit (file corrupt)", what, n)
	}
	return n, nil
}

// checkCRC reads a block's CRC trailer and compares it with crc, the
// checksum of the payload as read.
func checkCRC(r *bufio.Reader, crc uint32, what string) error {
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("table: columnar %s block missing checksum: %w", what, err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return fmt.Errorf("table: columnar %s block checksum mismatch (file corrupt)", what)
	}
	return nil
}

// readBlock reads one block's payload of any length, verifying its CRC.
func readBlock(r *bufio.Reader, what string) ([]byte, error) {
	n, err := blockLen(r, -1, what)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("table: columnar %s block truncated: %w", what, err)
	}
	return payload, checkCRC(r, crc32.Checksum(payload, castagnoli), what)
}

// readWords decodes a block of rows 8-byte little-endian words into a
// fresh []T without holding the payload: dec turns each run of words
// the reader has buffered into its rows of the result. The length is
// checked before the result is allocated, the CRC after the last run.
func readWords[T any](r *bufio.Reader, rows int64, what string, dec func(dst []T, words []byte)) ([]T, error) {
	if _, err := blockLen(r, 8*rows, what); err != nil {
		return nil, err
	}
	vals := make([]T, rows)
	var crc uint32
	for at := 0; at < len(vals); {
		k := min(len(vals)-at, r.Size()/8)
		words, err := r.Peek(8 * k)
		if err != nil {
			return nil, fmt.Errorf("table: columnar %s block truncated: %w", what, err)
		}
		crc = crc32.Update(crc, castagnoli, words)
		dec(vals[at:at+k], words)
		r.Discard(len(words))
		at += k
	}
	return vals, checkCRC(r, crc, what)
}

func readIntBlock(r *bufio.Reader, rows int64, what string) ([]int64, error) {
	return readWords(r, rows, what, func(dst []int64, words []byte) {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(words[8*i:]))
		}
	})
}

func readFloatBlock(r *bufio.Reader, rows int64, what string) ([]float64, error) {
	return readWords(r, rows, what, func(dst []float64, words []byte) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	})
}

// readIDBlock decodes an endpoint block into uint32 ids, 4 bytes a row.
// An id past the uint32 range fails the file rather than be narrowed:
// this writer never produces one.
func readIDBlock(r *bufio.Reader, rows int64, what string) ([]uint32, error) {
	var bad uint64
	ids, err := readWords(r, rows, what, func(dst []uint32, words []byte) {
		for i := range dst {
			v := binary.LittleEndian.Uint64(words[8*i:])
			if v > math.MaxUint32 && bad == 0 {
				bad = v
			}
			dst[i] = uint32(v)
		}
	})
	if err != nil {
		return nil, err
	}
	if bad != 0 {
		return nil, fmt.Errorf("table: columnar %s block holds id %d, outside the uint32 id range", what, int64(bad))
	}
	return ids, nil
}

// readStringBlock decodes a string block into arena chunks that alias
// the payload's bytes.
func readStringBlock(r *bufio.Reader, rows int64, what string) ([]Chunk, error) {
	payload, err := readBlock(r, what)
	if err != nil {
		return nil, err
	}
	offBytes := uint64(8 * (rows + 1))
	if uint64(len(payload)) < offBytes {
		return nil, fmt.Errorf("table: columnar %s block too short for %d offsets", what, rows+1)
	}
	data := payload[offBytes:]
	if binary.LittleEndian.Uint64(payload) != 0 {
		return nil, fmt.Errorf("table: columnar %s block has non-zero base offset", what)
	}
	arenas := make([]Chunk, (rows+ChunkRows-1)/ChunkRows)
	var base, prev uint64
	for i := int64(0); i < rows; i++ {
		a := &arenas[i/ChunkRows]
		if i%ChunkRows == 0 {
			base = prev
			a.Offs = append(make([]uint32, 0, min(ChunkRows, rows-i)+1), 0)
		}
		next := binary.LittleEndian.Uint64(payload[8*(i+1):])
		if next < prev || next > uint64(len(data)) || next-base > math.MaxUint32 {
			return nil, fmt.Errorf("table: columnar %s block has invalid offset %d at row %d", what, next, i)
		}
		a.Offs = append(a.Offs, uint32(next-base))
		a.Data = data[base:next]
		prev = next
	}
	return arenas, nil
}

// ReadColumnarTable decodes one columnar file from r.
func ReadColumnarTable(r io.Reader) (*ColumnarTable, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(columnarMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("table: reading columnar magic: %w", err)
	}
	if string(magic) != columnarMagic {
		return nil, fmt.Errorf("table: bad columnar magic %q", magic)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if kind != 'N' && kind != 'E' {
		return nil, fmt.Errorf("table: unknown columnar table kind %q", kind)
	}
	typeName, err := readName(br)
	if err != nil {
		return nil, err
	}
	rowsU, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if rowsU > maxColumnarRows {
		return nil, fmt.Errorf("table: columnar row count %d exceeds limit (file corrupt)", rowsU)
	}
	rows := int64(rowsU)
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ncols > maxColumnarName {
		return nil, fmt.Errorf("table: columnar column count %d exceeds limit", ncols)
	}
	ct := &ColumnarTable{TypeName: typeName, Rows: rows}
	if kind == 'E' {
		tail, err := readIDBlock(br, rows, typeName+".tail")
		if err != nil {
			return nil, err
		}
		head, err := readIDBlock(br, rows, typeName+".head")
		if err != nil {
			return nil, err
		}
		ct.Edges = &EdgeTable{Name: typeName, Tail: tail, Head: head}
	}
	for c := uint64(0); c < ncols; c++ {
		name, err := readName(br)
		if err != nil {
			return nil, err
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		pt := &PropertyTable{Name: name, Kind: ValueKind(kb), n: rows}
		switch pt.Kind {
		case KindString:
			if pt.arenas, err = readStringBlock(br, rows, name); err != nil {
				return nil, err
			}
		case KindFloat:
			if pt.floats, err = readFloatBlock(br, rows, name); err != nil {
				return nil, err
			}
		case KindInt, KindDate:
			if pt.ints, err = readIntBlock(br, rows, name); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("table: columnar column %s has unknown kind %d", name, kb)
		}
		ct.Props = append(ct.Props, pt)
	}
	// Trailing garbage means the file was not produced by this writer.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("table: columnar file has trailing bytes after last column")
	}
	return ct, nil
}

// ReadColumnarFile decodes the columnar file at path on the real
// filesystem. Fault-injection tests use ReadColumnarFileFS.
func ReadColumnarFile(path string) (*ColumnarTable, error) {
	return ReadColumnarFileFS(faultfs.OS, path)
}

// ReadColumnarFileFS decodes the columnar file at path through fsys,
// so injected open/read faults exercise the load path like real I/O
// errors would.
func ReadColumnarFileFS(fsys faultfs.FS, path string) (*ColumnarTable, error) {
	f, err := faultfs.OrOS(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ct, err := ReadColumnarTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ct, nil
}

// OpenColumnar loads every *.dsc file in dir back into a Dataset — the
// read side of WriteDirColumnar — on the real filesystem.
func OpenColumnar(dir string) (*Dataset, error) {
	return OpenColumnarFS(faultfs.OS, dir)
}

// OpenColumnarFS is OpenColumnar through fsys. File kind and type come
// from the file headers, not the names.
func OpenColumnarFS(fsys faultfs.FS, dir string) (*Dataset, error) {
	fsys = faultfs.OrOS(fsys)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ColumnarExt) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("table: no %s files in %s", ColumnarExt, dir)
	}
	d := NewDataset()
	for _, name := range names {
		ct, err := ReadColumnarFileFS(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if ct.Edges != nil {
			if _, dup := d.Edges[ct.TypeName]; dup {
				return nil, fmt.Errorf("table: duplicate edge type %q in %s", ct.TypeName, dir)
			}
			d.Edges[ct.TypeName] = ct.Edges
			d.EdgeProps[ct.TypeName] = ct.Props
		} else {
			if _, dup := d.NodeCounts[ct.TypeName]; dup {
				return nil, fmt.Errorf("table: duplicate node type %q in %s", ct.TypeName, dir)
			}
			d.NodeCounts[ct.TypeName] = ct.Rows
			d.NodeProps[ct.TypeName] = ct.Props
		}
	}
	return d, nil
}
