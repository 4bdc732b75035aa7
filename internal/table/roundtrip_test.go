package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Round-trip fidelity: writing a dataset with WriteDir / WriteDirJSONL
// and parsing the files back must reproduce every in-memory value
// exactly — strings verbatim, ints and dates losslessly, floats
// through Go's shortest-round-trip formatting. The formatting tests
// elsewhere in this package only check the emitted text; these tests
// close the loop through a real parser, the way a bulk loader would.

// roundTripDataset builds a dataset covering all four value kinds,
// including CSV-hostile strings (separators, quotes, newlines,
// unicode) and float edge cases.
func roundTripDataset() *Dataset {
	name := NewPropertyTable("User.name", KindString, 5)
	name.SetString(0, "alice")
	name.SetString(1, "bob,the,builder") // embedded separators
	name.SetString(2, `quote"inside`)    // embedded quote
	name.SetString(3, "multi\nline")     // embedded newline
	name.SetString(4, "ünïcødé ✓")

	karma := NewPropertyTable("User.karma", KindInt, 5)
	for i := int64(0); i < 5; i++ {
		karma.SetInt(i, (i-2)*1234567890123)
	}

	score := NewPropertyTable("User.score", KindFloat, 5)
	score.SetFloat(0, 0)
	score.SetFloat(1, -1.5)
	score.SetFloat(2, 1.0/3.0)
	score.SetFloat(3, math.MaxFloat64)
	score.SetFloat(4, 5e-324) // smallest denormal

	joined := NewPropertyTable("User.joined", KindDate, 5)
	for i := int64(0); i < 5; i++ {
		joined.SetInt(i, MustParseDate("2015-06-01")+i*400)
	}

	et := NewEdgeTable("follows", 3)
	et.Add(0, 1)
	et.Add(3, 4)
	et.Add(2, 2)
	weight := NewPropertyTable("follows.weight", KindFloat, 3)
	weight.SetFloat(0, 0.25)
	weight.SetFloat(1, 2.0/7.0)
	weight.SetFloat(2, -0)

	d := NewDataset()
	d.NodeCounts["User"] = 5
	d.NodeProps["User"] = []*PropertyTable{name, karma, score, joined}
	d.Edges["follows"] = et
	d.EdgeProps["follows"] = []*PropertyTable{weight}
	return d
}

// parseCell checks one parsed string cell against the PT value.
func assertCell(t *testing.T, pt *PropertyTable, id int64, cell string) {
	t.Helper()
	switch pt.Kind {
	case KindString:
		if cell != pt.String(id) {
			t.Errorf("%s row %d: %q, want %q", pt.Name, id, cell, pt.String(id))
		}
	case KindInt:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			t.Fatalf("%s row %d: %v", pt.Name, id, err)
		}
		if v != pt.Int(id) {
			t.Errorf("%s row %d: %d, want %d", pt.Name, id, v, pt.Int(id))
		}
	case KindFloat:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("%s row %d: %v", pt.Name, id, err)
		}
		if v != pt.Float(id) {
			t.Errorf("%s row %d: %v, want %v", pt.Name, id, v, pt.Float(id))
		}
	case KindDate:
		v, err := ParseDate(cell)
		if err != nil {
			t.Fatalf("%s row %d: %v", pt.Name, id, err)
		}
		if v != pt.Int(id) {
			t.Errorf("%s row %d: day %d, want %d", pt.Name, id, v, pt.Int(id))
		}
	}
}

func TestWriteDirCSVRoundTrip(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if err := d.WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	// Nodes.
	f, err := os.Open(filepath.Join(dir, "nodes_User.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	props := d.NodeProps["User"]
	if len(rows) != 6 {
		t.Fatalf("nodes_User.csv has %d rows, want header+5", len(rows))
	}
	wantHeader := []string{"id", "name", "karma", "score", "joined"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Fatalf("header = %v, want %v", rows[0], wantHeader)
		}
	}
	for r := 1; r < len(rows); r++ {
		id, err := strconv.ParseInt(rows[r][0], 10, 64)
		if err != nil || id != int64(r-1) {
			t.Fatalf("row %d id = %q", r, rows[r][0])
		}
		for j, pt := range props {
			assertCell(t, pt, id, rows[r][j+1])
		}
	}

	// Edges.
	ef, err := os.Open(filepath.Join(dir, "edges_follows.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	erows, err := csv.NewReader(ef).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	et := d.Edges["follows"]
	if len(erows) != int(et.Len())+1 {
		t.Fatalf("edges_follows.csv has %d rows", len(erows))
	}
	for r := 1; r < len(erows); r++ {
		id := int64(r - 1)
		tail, _ := strconv.ParseInt(erows[r][1], 10, 64)
		head, _ := strconv.ParseInt(erows[r][2], 10, 64)
		if tail != int64(et.Tail[id]) || head != int64(et.Head[id]) {
			t.Errorf("edge %d: (%d,%d), want (%d,%d)", id, tail, head, et.Tail[id], et.Head[id])
		}
		assertCell(t, d.EdgeProps["follows"][0], id, erows[r][3])
	}
}

func TestWriteDirJSONLRoundTrip(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if err := d.WriteDirJSONL(dir); err != nil {
		t.Fatal(err)
	}

	readLines := func(name string) []map[string]any {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var rows []map[string]any
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var row map[string]any
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.UseNumber() // keep int64s exact
			if err := dec.Decode(&row); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	rows := readLines("nodes_User.jsonl")
	if len(rows) != 5 {
		t.Fatalf("nodes_User.jsonl has %d rows", len(rows))
	}
	for id, row := range rows {
		if row["label"] != "User" {
			t.Fatalf("row %d label = %v", id, row["label"])
		}
		gotID, err := row["id"].(json.Number).Int64()
		if err != nil || gotID != int64(id) {
			t.Fatalf("row %d id = %v", id, row["id"])
		}
		for _, pt := range d.NodeProps["User"] {
			val := row[shortName(pt.Name)]
			switch pt.Kind {
			case KindString:
				if val != pt.String(int64(id)) {
					t.Errorf("%s row %d: %v, want %q", pt.Name, id, val, pt.String(int64(id)))
				}
			case KindInt:
				v, err := val.(json.Number).Int64()
				if err != nil || v != pt.Int(int64(id)) {
					t.Errorf("%s row %d: %v, want %d", pt.Name, id, val, pt.Int(int64(id)))
				}
			case KindFloat:
				v, err := val.(json.Number).Float64()
				if err != nil || v != pt.Float(int64(id)) {
					t.Errorf("%s row %d: %v, want %v", pt.Name, id, val, pt.Float(int64(id)))
				}
			case KindDate:
				v, err := ParseDate(val.(string))
				if err != nil || v != pt.Int(int64(id)) {
					t.Errorf("%s row %d: %v, want day %d", pt.Name, id, val, pt.Int(int64(id)))
				}
			}
		}
	}

	erows := readLines("edges_follows.jsonl")
	et := d.Edges["follows"]
	if len(erows) != int(et.Len()) {
		t.Fatalf("edges_follows.jsonl has %d rows", len(erows))
	}
	for id, row := range erows {
		tail, _ := row["tail"].(json.Number).Int64()
		head, _ := row["head"].(json.Number).Int64()
		if tail != int64(et.Tail[id]) || head != int64(et.Head[id]) {
			t.Errorf("edge %d: (%d,%d), want (%d,%d)", id, tail, head, et.Tail[id], et.Head[id])
		}
		w, err := row["weight"].(json.Number).Float64()
		if err != nil || w != d.EdgeProps["follows"][0].Float(int64(id)) {
			t.Errorf("edge %d weight = %v", id, row["weight"])
		}
	}
}
