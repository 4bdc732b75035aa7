package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteNodeJSONL(t *testing.T) {
	name := NewPropertyTable("Person.name", KindString, 2)
	name.SetString(0, "alice")
	name.SetString(1, "bob")
	date := NewPropertyTable("Person.joined", KindDate, 2)
	date.SetInt(0, MustParseDate("2020-02-02"))
	var buf bytes.Buffer
	if err := WriteNodeJSONL(&buf, "Person", []*PropertyTable{name, date}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var rows []map[string]any
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("invalid JSON line: %v", err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["name"] != "alice" || rows[0]["label"] != "Person" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[0]["joined"] != "2020-02-02" {
		t.Errorf("date not ISO: %v", rows[0]["joined"])
	}
}

func TestWriteEdgeJSONL(t *testing.T) {
	et := NewEdgeTable("knows", 1)
	et.Add(3, 4)
	w := NewPropertyTable("knows.weight", KindFloat, 1)
	w.SetFloat(0, 0.5)
	var buf bytes.Buffer
	if err := WriteEdgeJSONL(&buf, et, []*PropertyTable{w}); err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal(buf.Bytes(), &row); err != nil {
		t.Fatal(err)
	}
	if row["tail"] != float64(3) || row["head"] != float64(4) || row["weight"] != 0.5 {
		t.Errorf("row = %v", row)
	}
}

func TestJSONLValidationErrors(t *testing.T) {
	a := NewPropertyTable("T.a", KindInt, 2)
	b := NewPropertyTable("T.b", KindInt, 3)
	if err := WriteNodeJSONL(&bytes.Buffer{}, "T", []*PropertyTable{a, b}); err == nil {
		t.Error("ragged PTs should fail")
	}
	et := NewEdgeTable("e", 1)
	et.Add(0, 0)
	p := NewPropertyTable("e.x", KindInt, 2)
	if err := WriteEdgeJSONL(&bytes.Buffer{}, et, []*PropertyTable{p}); err == nil {
		t.Error("mismatched edge props should fail")
	}
}

// stdNodeJSONL is the old map[string]any + encoding/json node writer,
// kept as the reference the pooled append encoder must match byte for
// byte (keys sorted, HTML escaping, stdlib float formatting).
func stdNodeJSONL(t *testing.T, typeName string, props []*PropertyTable, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for id := int64(0); id < n; id++ {
		row := map[string]any{"id": id, "label": typeName}
		for _, pt := range props {
			row[shortName(pt.Name)] = stdJSONValue(pt, id)
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// stdEdgeJSONL is the old map-based edge writer, reference only.
func stdEdgeJSONL(t *testing.T, et *EdgeTable, props []*PropertyTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for id := int64(0); id < et.Len(); id++ {
		row := map[string]any{"id": id, "label": et.Name, "tail": et.Tail[id], "head": et.Head[id]}
		for _, pt := range props {
			row[shortName(pt.Name)] = stdJSONValue(pt, id)
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func stdJSONValue(pt *PropertyTable, id int64) any {
	switch pt.Kind {
	case KindString:
		return pt.String(id)
	case KindFloat:
		return pt.Float(id)
	case KindDate:
		return FormatDate(pt.Int(id))
	default:
		return pt.Int(id)
	}
}

// TestJSONLByteIdenticalToStdlib: the pooled append encoder must emit
// exactly the bytes of the old per-row map + encoding/json path — key
// order, HTML escaping, invalid UTF-8 replacement, float formatting —
// across every value kind and a battery of hostile strings.
func TestJSONLByteIdenticalToStdlib(t *testing.T) {
	const n = 9
	name := NewPropertyTable("User.name", KindString, n)
	name.SetString(0, "plain")
	name.SetString(1, `quote " backslash \`)
	name.SetString(2, "html <a href=\"x\">&amp;</a>")
	name.SetString(3, "ctrl \x00\x01\x1f tab\t nl\n cr\r")
	name.SetString(4, "unicode ünïcødé ✓ 𝄞")
	name.SetString(5, "line seps \u2028 and \u2029")
	name.SetString(6, "invalid \xff\xfe utf8 \xc3")
	name.SetString(7, "")
	name.SetString(8, "\x7f del")
	karma := NewPropertyTable("User.karma", KindInt, n)
	score := NewPropertyTable("User.score", KindFloat, n)
	joined := NewPropertyTable("User.joined", KindDate, n)
	floats := []float64{0, -0.0, 1.0 / 3.0, math.MaxFloat64, 5e-324, 1e-7, 1e21, -2.5e-9, 12345.6789}
	for i := int64(0); i < n; i++ {
		karma.SetInt(i, (i-4)*987654321098)
		score.SetFloat(i, floats[i])
		joined.SetInt(i, MustParseDate("2012-03-04")+i*311)
	}
	props := []*PropertyTable{name, karma, score, joined}

	var got bytes.Buffer
	if err := WriteNodeJSONL(&got, "Usér<&>", props); err != nil {
		t.Fatal(err)
	}
	want := stdNodeJSONL(t, "Usér<&>", props, n)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("node JSONL differs from stdlib encoder:\n got: %q\nwant: %q", got.Bytes(), want)
	}

	et := NewEdgeTable("knows & <tells>", n)
	weight := NewPropertyTable("knows.weight", KindFloat, n)
	for i := int64(0); i < n; i++ {
		et.Add(i, (i*7)%n)
		weight.SetFloat(i, floats[i])
	}
	got.Reset()
	if err := WriteEdgeJSONL(&got, et, []*PropertyTable{weight}); err != nil {
		t.Fatal(err)
	}
	wantEdges := stdEdgeJSONL(t, et, []*PropertyTable{weight})
	if !bytes.Equal(got.Bytes(), wantEdges) {
		t.Fatalf("edge JSONL differs from stdlib encoder:\n got: %q\nwant: %q", got.Bytes(), wantEdges)
	}
}

// TestJSONLReservedKeyCollision: a property short name equal to a
// structural key used to silently overwrite that field in the row map;
// it must now fail loudly, for nodes and edges alike.
func TestJSONLReservedKeyCollision(t *testing.T) {
	for _, reserved := range []string{"id", "label"} {
		pt := NewPropertyTable("User."+reserved, KindInt, 1)
		err := WriteNodeJSONL(&bytes.Buffer{}, "User", []*PropertyTable{pt})
		if err == nil {
			t.Fatalf("node property %q did not collide", reserved)
		}
		if !strings.Contains(err.Error(), reserved) {
			t.Errorf("collision error does not name the key: %v", err)
		}
	}
	et := NewEdgeTable("knows", 1)
	et.Add(0, 0)
	for _, reserved := range []string{"id", "label", "tail", "head"} {
		pt := NewPropertyTable("knows."+reserved, KindFloat, 1)
		if err := WriteEdgeJSONL(&bytes.Buffer{}, et, []*PropertyTable{pt}); err == nil {
			t.Fatalf("edge property %q did not collide", reserved)
		}
	}
	// Two properties sharing a short name collide with each other too.
	a := NewPropertyTable("User.x", KindInt, 1)
	b := NewPropertyTable("Other.x", KindInt, 1)
	if err := WriteNodeJSONL(&bytes.Buffer{}, "User", []*PropertyTable{a, b}); err == nil {
		t.Fatal("duplicate property short names did not collide")
	}
	// The collision must also surface through the export pipeline.
	d := NewDataset()
	bad := NewPropertyTable("User.label", KindString, 1)
	bad.SetString(0, "x")
	d.NodeProps["User"] = []*PropertyTable{bad}
	d.NodeCounts["User"] = 1
	if _, err := d.Export(t.TempDir(), ExportOptions{Format: FormatJSONL}); err == nil {
		t.Fatal("a JSONL export accepted a reserved-key collision")
	}
}

// TestCSVHeaderCollision: the shared collision check protects the CSV
// connector too — a property short-named "id" (or two properties
// sharing a short name) used to silently emit an ambiguous duplicate
// header column. "label" stays legal in CSV: it is only a structural
// key in JSONL rows.
func TestCSVHeaderCollision(t *testing.T) {
	id := NewPropertyTable("User.id", KindInt, 1)
	if err := WriteNodeCSV(&bytes.Buffer{}, "User", []*PropertyTable{id}); err == nil {
		t.Fatal("node property \"id\" did not collide with the CSV id column")
	}
	a := NewPropertyTable("User.x", KindInt, 1)
	b := NewPropertyTable("Other.x", KindInt, 1)
	if err := WriteNodeCSV(&bytes.Buffer{}, "User", []*PropertyTable{a, b}); err == nil {
		t.Fatal("duplicate CSV headers did not collide")
	}
	label := NewPropertyTable("User.label", KindString, 1)
	label.SetString(0, "x")
	if err := WriteNodeCSV(&bytes.Buffer{}, "User", []*PropertyTable{label}); err != nil {
		t.Fatalf("\"label\" must stay legal in CSV: %v", err)
	}
	et := NewEdgeTable("knows", 1)
	et.Add(0, 0)
	for _, reserved := range []string{"id", "tail", "head"} {
		pt := NewPropertyTable("knows."+reserved, KindFloat, 1)
		if err := WriteEdgeCSV(&bytes.Buffer{}, et, []*PropertyTable{pt}); err == nil {
			t.Fatalf("edge property %q did not collide with the CSV structural columns", reserved)
		}
	}
}

// TestJSONLUnsupportedFloat: NaN and ±Inf have no JSON encoding — the
// stdlib errored on them, and the append encoder must too, naming the
// property and row.
func TestJSONLUnsupportedFloat(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pt := NewPropertyTable("User.score", KindFloat, 2)
		pt.SetFloat(1, v)
		err := WriteNodeJSONL(&bytes.Buffer{}, "User", []*PropertyTable{pt})
		if err == nil {
			t.Fatalf("value %v encoded without error", v)
		}
		if !strings.Contains(err.Error(), "User.score") || !strings.Contains(err.Error(), "row 1") {
			t.Errorf("error does not locate the bad cell: %v", err)
		}
	}
}

func TestDatasetWriteDirJSONL(t *testing.T) {
	d := NewDataset()
	name := NewPropertyTable("Person.name", KindString, 1)
	name.SetString(0, "x")
	d.NodeProps["Person"] = []*PropertyTable{name}
	d.NodeCounts["Person"] = 1
	et := NewEdgeTable("knows", 1)
	et.Add(0, 0)
	d.Edges["knows"] = et
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatJSONL}); err != nil {
		t.Fatal(err)
	}
	nodes, err := os.ReadFile(filepath.Join(dir, "nodes_Person.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal(nodes, &row); err != nil {
		t.Fatal(err)
	}
	if row["name"] != "x" {
		t.Errorf("row = %v", row)
	}
	if _, err := os.Stat(filepath.Join(dir, "edges_knows.jsonl")); err != nil {
		t.Error("edges file missing")
	}
}
