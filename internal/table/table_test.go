package table

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKindRoundTrip(t *testing.T) {
	for _, k := range []ValueKind{KindString, KindInt, KindFloat, KindDate} {
		parsed, err := ParseValueKind(k.String())
		if err != nil {
			t.Fatalf("ParseValueKind(%v): %v", k, err)
		}
		if parsed != k {
			t.Errorf("round trip %v -> %v", k, parsed)
		}
	}
	if _, err := ParseValueKind("bogus"); err == nil {
		t.Error("ParseValueKind(bogus) should fail")
	}
	if got := ParseValueKindAliases(t); got != nil {
		t.Error(got)
	}
}

// ParseValueKindAliases checks the long/double aliases.
func ParseValueKindAliases(t *testing.T) error {
	t.Helper()
	if k, err := ParseValueKind("long"); err != nil || k != KindInt {
		t.Errorf("long -> %v, %v", k, err)
	}
	if k, err := ParseValueKind("double"); err != nil || k != KindFloat {
		t.Errorf("double -> %v, %v", k, err)
	}
	return nil
}

func TestPropertyTableTypedAccess(t *testing.T) {
	pt := NewPropertyTable("Person.name", KindString, 3)
	pt.SetString(0, "alice")
	pt.SetString(2, "carol")
	if pt.String(0) != "alice" || pt.String(1) != "" || pt.String(2) != "carol" {
		t.Errorf("string column wrong: %v", pt.Strings())
	}
	if pt.Len() != 3 {
		t.Errorf("Len = %d", pt.Len())
	}
	if v, ok := pt.Value(0).(string); !ok || v != "alice" {
		t.Errorf("Value(0) = %v", pt.Value(0))
	}

	pi := NewPropertyTable("Person.age", KindInt, 2)
	pi.SetInt(1, 42)
	if pi.Int(1) != 42 {
		t.Error("int column wrong")
	}
	pf := NewPropertyTable("Person.score", KindFloat, 2)
	pf.SetFloat(0, 1.5)
	if pf.Float(0) != 1.5 {
		t.Error("float column wrong")
	}
}

func TestPropertyTableKindMismatchPanics(t *testing.T) {
	pt := NewPropertyTable("x", KindInt, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetString on int table should panic")
		}
	}()
	pt.SetString(0, "boom")
}

func TestPropertyTableFormat(t *testing.T) {
	pd := NewPropertyTable("p.d", KindDate, 1)
	pd.SetInt(0, MustParseDate("2017-04-03"))
	if got := pd.Format(0); got != "2017-04-03" {
		t.Errorf("date format = %q", got)
	}
	pf := NewPropertyTable("p.f", KindFloat, 1)
	pf.SetFloat(0, 0.25)
	if got := pf.Format(0); got != "0.25" {
		t.Errorf("float format = %q", got)
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "2010-06-15", "2026-06-12", "1969-12-31"} {
		d, err := ParseDate(s)
		if err != nil {
			t.Fatalf("ParseDate(%s): %v", s, err)
		}
		if got := FormatDate(d); got != s {
			t.Errorf("date round trip %s -> %s", s, got)
		}
	}
	if _, err := ParseDate("junk"); err == nil {
		t.Error("ParseDate(junk) should fail")
	}
}

func TestDateOrdering(t *testing.T) {
	a := MustParseDate("2010-01-01")
	b := MustParseDate("2010-01-02")
	if b != a+1 {
		t.Errorf("consecutive days differ by %d", b-a)
	}
}

func TestEdgeTableBasics(t *testing.T) {
	et := NewEdgeTable("knows", 4)
	if id := et.Add(0, 1); id != 0 {
		t.Errorf("first edge id = %d", id)
	}
	et.Add(1, 2)
	et.Add(2, 0)
	if et.Len() != 3 {
		t.Errorf("Len = %d", et.Len())
	}
	if et.MaxNode() != 3 {
		t.Errorf("MaxNode = %d", et.MaxNode())
	}
	if err := et.Validate(3, 3); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := et.Validate(2, 3); err == nil {
		t.Error("Validate should reject tail out of range")
	}
}

func TestEdgeTableEmpty(t *testing.T) {
	et := NewEdgeTable("e", 0)
	if et.MaxNode() != 0 {
		t.Errorf("empty MaxNode = %d", et.MaxNode())
	}
	if err := et.Validate(0, 0); err != nil {
		t.Errorf("empty Validate: %v", err)
	}
}

func TestEdgeTableRemap(t *testing.T) {
	et := NewEdgeTable("e", 2)
	et.Add(0, 1)
	et.Add(1, 2)
	f := []uint32{10, 20, 30}
	et.Remap(f)
	if et.Tail[0] != 10 || et.Head[0] != 20 || et.Tail[1] != 20 || et.Head[1] != 30 {
		t.Errorf("remap wrong: %v %v", et.Tail, et.Head)
	}
}

func TestEdgeTableRemapBipartite(t *testing.T) {
	et := NewEdgeTable("creates", 2)
	et.Add(0, 0)
	et.Add(1, 1)
	et.RemapTails([]uint32{5, 6})
	et.RemapHeads([]uint32{7, 8})
	if et.Tail[0] != 5 || et.Head[0] != 7 || et.Tail[1] != 6 || et.Head[1] != 8 {
		t.Errorf("bipartite remap wrong: %v %v", et.Tail, et.Head)
	}
}

// TestEdgeTableAddBound: an endpoint outside [0, 2^32) panics in Add
// instead of being truncated into another node's id.
func TestEdgeTableAddBound(t *testing.T) {
	et := NewEdgeTable("e", 1)
	et.Add(0, math.MaxUint32)
	for _, c := range [][2]int64{{1 << 32, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d, %d) did not panic", c[0], c[1])
				}
			}()
			et.Add(c[0], c[1])
		}()
	}
	if et.Len() != 1 || et.Tail[0] != 0 || et.Head[0] != math.MaxUint32 {
		t.Errorf("table holds %v → %v, want the one edge 0 → 2^32-1", et.Tail, et.Head)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestEdgeTableBytesPerEdge pins the table's footprint: both endpoint
// ids are uint32, so a table sized up front holds m edges in 8 bytes
// each, and Add allocates nothing of its own.
func TestEdgeTableBytesPerEdge(t *testing.T) {
	const m = 1 << 20
	b := allocated(func() {
		et := NewEdgeTable("e", m)
		for i := int64(0); i < m; i++ {
			et.Add(i, m-1-i)
		}
	})
	t.Logf("%d edges in %d bytes (%.2f B an edge)", m, b, float64(b)/m)
	if b > 8*m+32<<10 {
		t.Errorf("NewEdgeTable(%d) and %d Adds allocated %d bytes, want ≤ 8 an edge + 32 KiB", m, m, b)
	}
}

func TestWriteNodeCSV(t *testing.T) {
	name := NewPropertyTable("Person.name", KindString, 2)
	name.SetString(0, "alice")
	name.SetString(1, "bob")
	age := NewPropertyTable("Person.age", KindInt, 2)
	age.SetInt(0, 30)
	age.SetInt(1, 40)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, "Person", []*PropertyTable{name, age}); err != nil {
		t.Fatal(err)
	}
	want := "id,name,age\n0,alice,30\n1,bob,40\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteNodeCSVRaggedFails(t *testing.T) {
	a := NewPropertyTable("T.a", KindInt, 2)
	b := NewPropertyTable("T.b", KindInt, 3)
	if err := WriteNodeCSV(&bytes.Buffer{}, "T", []*PropertyTable{a, b}); err == nil {
		t.Error("ragged PTs should fail")
	}
}

func TestWriteEdgeCSV(t *testing.T) {
	et := NewEdgeTable("knows", 1)
	et.Add(3, 4)
	d := NewPropertyTable("knows.creationDate", KindDate, 1)
	d.SetInt(0, MustParseDate("2015-05-05"))
	var buf bytes.Buffer
	if err := WriteEdgeCSV(&buf, et, []*PropertyTable{d}); err != nil {
		t.Fatal(err)
	}
	want := "id,tail,head,creationDate\n0,3,4,2015-05-05\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteEdgeCSVPropLenMismatch(t *testing.T) {
	et := NewEdgeTable("e", 1)
	et.Add(0, 0)
	p := NewPropertyTable("e.x", KindInt, 2)
	if err := WriteEdgeCSV(&bytes.Buffer{}, et, []*PropertyTable{p}); err == nil {
		t.Error("mismatched edge props should fail")
	}
}

func TestDatasetWriteDir(t *testing.T) {
	dir := t.TempDir()
	d := NewDataset()
	name := NewPropertyTable("Person.name", KindString, 1)
	name.SetString(0, "x")
	d.NodeProps["Person"] = []*PropertyTable{name}
	d.NodeCounts["Person"] = 1
	et := NewEdgeTable("knows", 1)
	et.Add(0, 0)
	d.Edges["knows"] = et
	d.EdgeProps["knows"] = nil
	if err := d.WriteDir(filepath.Join(dir, "out")); err != nil {
		t.Fatal(err)
	}
	nodes, err := os.ReadFile(filepath.Join(dir, "out", "nodes_Person.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(nodes), "id,name\n") {
		t.Errorf("nodes CSV = %q", nodes)
	}
	edges, err := os.ReadFile(filepath.Join(dir, "out", "edges_knows.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(edges), "id,tail,head\n") {
		t.Errorf("edges CSV = %q", edges)
	}
	if s := d.Stats(); !strings.Contains(s, "1 node types") {
		t.Errorf("Stats = %q", s)
	}
}

func TestRemapPreservesLengthProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		et := NewEdgeTable("e", int64(len(pairs)))
		for _, p := range pairs {
			et.Add(int64(p%16), int64(p/16))
		}
		mapping := make([]uint32, 16)
		for i := range mapping {
			mapping[i] = uint32(15 - i)
		}
		before := et.Len()
		et.Remap(mapping)
		return et.Len() == before && et.Validate(16, 16) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
