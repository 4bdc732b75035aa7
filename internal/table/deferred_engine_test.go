package table_test

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// columns lists every property column of d, node types then edge types,
// each in name order.
func columns(d *table.Dataset) []*table.PropertyTable {
	var out []*table.PropertyTable
	for _, byType := range []map[string][]*table.PropertyTable{d.NodeProps, d.EdgeProps} {
		for _, typ := range slices.Sorted(maps.Keys(byType)) {
			out = append(out, byType[typ]...)
		}
	}
	return out
}

// TestDeferredEqualsStored: a dataset reads the same whether its
// deferred columns are still closures or were materialised by a reader.
// For the benchmark's three schemas (read, never written, from
// bench/schemas) in the three formats: a dataset whose every column was
// touched first exports the bytes of an untouched one; what the touched
// columns hold is what the untouched export's columnar files load back
// as stored columns; and the export itself materialises nothing.
func TestDeferredEqualsStored(t *testing.T) {
	paths, err := filepath.Glob("../../bench/schemas/*.dsl.tmpl")
	if err != nil || len(paths) != 3 {
		t.Fatalf("want the three bench schemas, found %v (%v)", paths, err)
	}
	sizes := strings.NewReplacer("$SEED", "7", "$USERS", "12000", "$PRODUCTS", "1200", "$PERSONS", "12000", "$PAGES", "16384")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dsl.Parse(sizes.Replace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		generate := func() *table.Dataset {
			d, err := core.New(s).Generate()
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			return d
		}
		untouched, touched := generate(), generate()
		var deferred []*table.PropertyTable
		for _, pt := range columns(untouched) {
			if pt.Deferred() {
				deferred = append(deferred, pt)
			}
		}
		if len(deferred) == 0 {
			t.Fatalf("%s: no column is deferred", p)
		}
		for _, pt := range columns(touched) {
			if pt.Len() > 0 {
				pt.Value(pt.Len() - 1)
			}
			if pt.Deferred() {
				t.Fatalf("%s: reading %s left it deferred", p, pt.Name)
			}
		}

		dirs := map[table.Format][2]string{}
		for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
			dirs[format] = [2]string{t.TempDir(), t.TempDir()}
			for i, d := range []*table.Dataset{untouched, touched} {
				if _, err := d.Export(dirs[format][i], table.ExportOptions{Format: format}); err != nil {
					t.Fatalf("%s %v: %v", p, format, err)
				}
			}
			files, err := os.ReadDir(dirs[format][0])
			if err != nil || len(files) == 0 {
				t.Fatalf("%s %v: no files (%v)", p, format, err)
			}
			for _, f := range files {
				a, aerr := os.ReadFile(filepath.Join(dirs[format][0], f.Name()))
				b, berr := os.ReadFile(filepath.Join(dirs[format][1], f.Name()))
				if aerr != nil || berr != nil || !bytes.Equal(a, b) {
					t.Errorf("%s %v: %s differs between the untouched and the touched dataset (%v, %v)", p, format, f.Name(), aerr, berr)
				}
			}
		}
		for _, pt := range deferred {
			if !pt.Deferred() {
				t.Errorf("%s: exporting materialised %s", p, pt.Name)
			}
		}

		loaded, err := table.OpenColumnar(dirs[table.FormatColumnar][0])
		if err != nil {
			t.Fatal(err)
		}
		stored := columns(loaded)
		for k, pt := range columns(touched) {
			if stored[k].Name != pt.Name || stored[k].Len() != pt.Len() {
				t.Fatalf("%s: column %d is %s (%d rows), loaded back as %s (%d rows)", p, k, pt.Name, pt.Len(), stored[k].Name, stored[k].Len())
			}
			for id := int64(0); id < pt.Len(); id++ {
				if got, want := pt.Value(id), stored[k].Value(id); got != want {
					t.Fatalf("%s: %s row %d holds %v, the stored column %v", p, pt.Name, id, got, want)
				}
			}
		}
	}
}
