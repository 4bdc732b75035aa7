package table

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"datasynth/internal/faultfs"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func putUvarintLen(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

// Columnar round-trip fidelity, mirroring roundtrip_test.go: writing
// with a columnar Export and loading with OpenColumnar must reproduce
// every in-memory value exactly. Unlike the text formats there is no
// formatting layer at all — ints, dates and float bit patterns travel
// raw — so equality here is bit-for-bit by construction, and the test
// pins that contract.

// assertDatasetsEqual deep-compares two datasets value by value.
func assertDatasetsEqual(t *testing.T, want, got *Dataset) {
	t.Helper()
	if len(got.NodeCounts) != len(want.NodeCounts) {
		t.Fatalf("node types = %d, want %d", len(got.NodeCounts), len(want.NodeCounts))
	}
	for typ, n := range want.NodeCounts {
		if got.NodeCounts[typ] != n {
			t.Errorf("NodeCounts[%s] = %d, want %d", typ, got.NodeCounts[typ], n)
		}
		wantProps, gotProps := want.NodeProps[typ], got.NodeProps[typ]
		if len(gotProps) != len(wantProps) {
			t.Fatalf("%s has %d props, want %d", typ, len(gotProps), len(wantProps))
		}
		for i, wpt := range wantProps {
			assertPTEqual(t, wpt, gotProps[i])
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge types = %d, want %d", len(got.Edges), len(want.Edges))
	}
	for typ, wet := range want.Edges {
		get := got.Edges[typ]
		if get == nil {
			t.Fatalf("edge type %s missing", typ)
		}
		if get.Name != wet.Name || get.Len() != wet.Len() {
			t.Fatalf("edge %s: name/len %q/%d, want %q/%d", typ, get.Name, get.Len(), wet.Name, wet.Len())
		}
		for i := range wet.Tail {
			if get.Tail[i] != wet.Tail[i] || get.Head[i] != wet.Head[i] {
				t.Errorf("edge %s row %d: (%d,%d), want (%d,%d)",
					typ, i, get.Tail[i], get.Head[i], wet.Tail[i], wet.Head[i])
			}
		}
		wantProps, gotProps := want.EdgeProps[typ], got.EdgeProps[typ]
		if len(gotProps) != len(wantProps) {
			t.Fatalf("%s has %d edge props, want %d", typ, len(gotProps), len(wantProps))
		}
		for i, wpt := range wantProps {
			assertPTEqual(t, wpt, gotProps[i])
		}
	}
}

func assertPTEqual(t *testing.T, want, got *PropertyTable) {
	t.Helper()
	if got.Name != want.Name || got.Kind != want.Kind || got.Len() != want.Len() {
		t.Fatalf("PT %s: name/kind/len %q/%v/%d, want %q/%v/%d",
			want.Name, got.Name, got.Kind, got.Len(), want.Name, want.Kind, want.Len())
	}
	for id := int64(0); id < want.Len(); id++ {
		switch want.Kind {
		case KindString:
			if got.String(id) != want.String(id) {
				t.Errorf("%s row %d: %q, want %q", want.Name, id, got.String(id), want.String(id))
			}
		case KindFloat:
			// Bit equality, not ==: the format must preserve NaNs and
			// signed zeros exactly.
			if gotBits, wantBits := floatBits(got.Float(id)), floatBits(want.Float(id)); gotBits != wantBits {
				t.Errorf("%s row %d: %v (bits %x), want %v (bits %x)",
					want.Name, id, got.Float(id), gotBits, want.Float(id), wantBits)
			}
		default:
			if got.Int(id) != want.Int(id) {
				t.Errorf("%s row %d: %d, want %d", want.Name, id, got.Int(id), want.Int(id))
			}
		}
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nodes_User.dsc", "edges_follows.dsc"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("expected %s: %v", name, err)
		}
	}
	got, err := OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)
}

// TestColumnarReadFaultInjection pins the read path to faultfs: both
// the directory scan and every per-file open must go through the
// caller's FS, so injected faults surface as load errors instead of
// silently bypassing the harness via direct os calls.
func TestColumnarReadFaultInjection(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}

	fsys := faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpReadDir, Nth: 1})
	if _, err := OpenColumnarFS(fsys, dir); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("OpenColumnarFS with ReadDir fault = %v, want ErrInjected", err)
	}

	// Nth=2 proves the second file's open is routed through fsys too,
	// not just the first.
	fsys = faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpOpen, Nth: 2})
	if _, err := OpenColumnarFS(fsys, dir); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("OpenColumnarFS with Open fault = %v, want ErrInjected", err)
	}

	// A rule-free injected FS must behave exactly like the real one.
	got, err := OpenColumnarFS(faultfs.NewInject(1), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)
}

func TestColumnarZeroPropertyNodeType(t *testing.T) {
	// A bare join type has a count but no columns; the header alone
	// must carry it through the round trip.
	d := NewDataset()
	d.NodeCounts["Bare"] = 7
	et := NewEdgeTable("self", 1)
	et.Add(0, 6)
	d.Edges["self"] = et
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}
	got, err := OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCounts["Bare"] != 7 {
		t.Errorf("Bare count = %d, want 7", got.NodeCounts["Bare"])
	}
	if len(got.NodeProps["Bare"]) != 0 {
		t.Errorf("Bare has %d props", len(got.NodeProps["Bare"]))
	}
}

func TestColumnarSingleTableWriters(t *testing.T) {
	d := roundTripDataset()
	var buf bytes.Buffer
	if err := WriteNodeColumnar(&buf, "User", 5, d.NodeProps["User"]); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadColumnarTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ct.TypeName != "User" || ct.Rows != 5 || ct.Edges != nil || len(ct.Props) != 4 {
		t.Fatalf("decoded node table wrong: %+v", ct)
	}
	buf.Reset()
	if err := WriteEdgeColumnar(&buf, d.Edges["follows"], d.EdgeProps["follows"]); err != nil {
		t.Fatal(err)
	}
	ct, err = ReadColumnarTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Edges == nil || ct.Edges.Len() != 3 || len(ct.Props) != 1 {
		t.Fatalf("decoded edge table wrong: %+v", ct)
	}
}

func TestColumnarWriterValidatesLengths(t *testing.T) {
	short := NewPropertyTable("T.x", KindInt, 2)
	if err := WriteNodeColumnar(&bytes.Buffer{}, "T", 3, []*PropertyTable{short}); err == nil {
		t.Error("ragged node props should fail")
	}
	et := NewEdgeTable("e", 1)
	et.Add(0, 1)
	if err := WriteEdgeColumnar(&bytes.Buffer{}, et, []*PropertyTable{short}); err == nil {
		t.Error("ragged edge props should fail")
	}
}

func TestColumnarDetectsCorruption(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "nodes_User.dsc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte deep in the file: the block CRC must catch it.
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadColumnarTable(bytes.NewReader(flipped)); err == nil {
		t.Error("bit flip not detected")
	}

	// Truncation must fail cleanly, not hang or panic.
	for _, cut := range []int{3, len(raw) / 3, len(raw) - 2} {
		if _, err := ReadColumnarTable(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}

	// Wrong magic.
	bad := bytes.Clone(raw)
	copy(bad, "NOPE")
	if _, err := ReadColumnarTable(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic error = %v", err)
	}

	// Trailing garbage.
	if _, err := ReadColumnarTable(bytes.NewReader(append(bytes.Clone(raw), 0x00))); err == nil {
		t.Error("trailing bytes not detected")
	}
}

// TestColumnarRejectsAbsurdRowCount: a crafted header whose rows field
// is 2^64-1 (int64 -1) must return a corruption error, not panic in
// make() or attempt a giant allocation.
func TestColumnarRejectsAbsurdRowCount(t *testing.T) {
	craft := func(rows uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("DSC1")
		buf.WriteByte('N')
		buf.Write([]byte{1, 'T'}) // type name "T"
		var scratch [10]byte
		buf.Write(scratch[:putUvarintLen(scratch[:], rows)])
		buf.WriteByte(1)                    // ncols = 1
		buf.Write([]byte{3, 'T', '.', 'x'}) // column name "T.x"
		buf.WriteByte(byte(KindString))
		buf.Write([]byte{0})          // empty block payload length
		buf.Write([]byte{0, 0, 0, 0}) // CRC of empty payload
		return buf.Bytes()
	}
	for _, rows := range []uint64{^uint64(0), maxColumnarRows + 1} {
		if _, err := ReadColumnarTable(bytes.NewReader(craft(rows))); err == nil {
			t.Errorf("rows=%d accepted", rows)
		} else if !strings.Contains(err.Error(), "row count") {
			t.Errorf("rows=%d: error %v is not the row-count guard", rows, err)
		}
	}
}

// TestOpenColumnarEdgeAllocations: loading an m-edge columnar file
// costs the loaded table — two uint32 ids, 8 bytes an edge — and no
// more. The file's 16 bytes an edge of int64 ids stream through the
// reader's buffer; neither the payload nor an int64 copy of it is held.
func TestOpenColumnarEdgeAllocations(t *testing.T) {
	const m = 1 << 20
	et := NewEdgeTable("e", m)
	for i := int64(0); i < m; i++ {
		et.Add(i, math.MaxUint32-i)
	}
	d := NewDataset()
	d.Edges["e"] = et
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}
	var got *Dataset
	b := allocated(func() {
		var err error
		if got, err = OpenColumnar(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding %d edges allocated %d bytes (%.2f B an edge)", m, b, float64(b)/m)
	if b > 8*m+256<<10 {
		t.Errorf("OpenColumnar allocated %d bytes for %d edges, want ≤ 8 an edge + 256 KiB", b, m)
	}
	assertDatasetsEqual(t, d, got)
}

// TestColumnarRejectsIDPastUint32: an endpoint block holding an id no
// uint32 holds — a foreign or corrupt file, with a valid checksum — is
// an error naming the block, not an id narrowed into another node's.
func TestColumnarRejectsIDPastUint32(t *testing.T) {
	for _, id := range []int64{1 << 32, -1} {
		var buf bytes.Buffer
		if err := writeHeader(&buf, 'E', "e", 2, 0); err != nil {
			t.Fatal(err)
		}
		for _, col := range [][]int64{{0, id}, {1, 2}} {
			b := newBlock(&buf, 16)
			putWords(b, col)
			if err := b.close(); err != nil {
				t.Fatal(err)
			}
		}
		_, err := ReadColumnarTable(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "e.tail") || !strings.Contains(err.Error(), "outside the uint32 id range") {
			t.Errorf("tail id %d: ReadColumnarTable = %v, want an error naming e.tail's id range", id, err)
		}
	}
}

// TestEdgeIDExtremesRoundTrip: the widest endpoint ids, 0 and 2^32-1,
// leave as strconv renders them in CSV and JSON lines, and come back
// from a columnar file as they went in.
func TestEdgeIDExtremesRoundTrip(t *testing.T) {
	et := NewEdgeTable("e", 2)
	et.Add(0, math.MaxUint32)
	et.Add(math.MaxUint32, 0)
	lo, hi := strconv.Itoa(0), strconv.FormatUint(math.MaxUint32, 10)
	var csvOut, jsonOut bytes.Buffer
	if err := WriteEdgeCSV(&csvOut, et, nil); err != nil {
		t.Fatal(err)
	}
	if want := "id,tail,head\n0," + lo + "," + hi + "\n1," + hi + "," + lo + "\n"; csvOut.String() != want {
		t.Errorf("CSV = %q, want %q", csvOut.String(), want)
	}
	if err := WriteEdgeJSONL(&jsonOut, et, nil); err != nil {
		t.Fatal(err)
	}
	want := `{"head":` + hi + `,"id":0,"label":"e","tail":` + lo + "}\n" + `{"head":` + lo + `,"id":1,"label":"e","tail":` + hi + "}\n"
	if jsonOut.String() != want {
		t.Errorf("JSONL = %q, want %q", jsonOut.String(), want)
	}
	var col bytes.Buffer
	if err := WriteEdgeColumnar(&col, et, nil); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadColumnarTable(bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ct.Edges.Tail, et.Tail) || !slices.Equal(ct.Edges.Head, et.Head) {
		t.Errorf("columnar round trip: %v → %v, want %v → %v", ct.Edges.Tail, ct.Edges.Head, et.Tail, et.Head)
	}
}
