package core

import (
	"path/filepath"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// recommenderDSL is the benchmark's recommender schema at test scale:
// a zipf-attachment *→* edge between two node types whose
// segment/category correlation runs the bipartite matcher.
const recommenderDSL = `
graph recommender {
  seed = 1
  node User {
    count = 3000
    property segment : string = categorical(values="gamer|maker|chef|reader", weights="4|3|2|3")
    property signupDate : date = uniform-date(from="2018-01-01", to="2024-12-31")
  }
  node Product {
    count = 400
    property category : string = categorical(values="games|tools|kitchen|books", weights="4|3|2|3")
    property price : float = uniform-float(lo=1, hi=200)
  }
  edge rates : User *-* Product {
    structure = zipf-attachment(min=1, max=30, gamma=1.8, theta=1.1)
    correlate tail.segment with head.category homophily 0.75
    property rating : int = rating(lo=1, hi=5)
    property date : date = uniform-date(from="2018-01-01", to="2025-12-31")
  }
}
`

// TestCorrelatedExportsPinned pins the CSV bytes of one schema per
// correlation target: one-domain homophily (paperDSL), the fused 1→*
// operator (fusedDSL) and the two-domain bipartite matcher
// (recommenderDSL). The other export tests compare runs with each
// other; these hashes hold the targets and the matchers to fixed bytes.
func TestCorrelatedExportsPinned(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      map[string]string
	}{
		{"paper", paperDSL, map[string]string{
			"edges_creates.csv": "cfa0b866ad6a3f095ce12d66f832ecf95649ac1aee1217fbb5d0c0459449b1cb",
			"edges_knows.csv":   "5880249bf1cf862f662bdb4d609249be8522139a6a1cd3c9aaec0d226f7c453c",
			"nodes_Message.csv": "67cfe4eeb86a82622cd9d336d2c7b9bce59946d842c4be253144de1cbf813367",
			"nodes_Person.csv":  "c515cc60351ccf80510912d1b410a322726662bd4644e7b79253849c46cc1544",
		}},
		{"fused", fusedDSL, map[string]string{
			"edges_posts.csv":   "ed11555c156b981ef722e293f60dea2199618752cf59919bba66b92b4a2ea51e",
			"nodes_Message.csv": "1699a05dfe41029ec2bebbcf1bff776950a03019de52ecc8e1e8a05bb973a604",
			"nodes_Person.csv":  "73b26d0df0164f4d68fa35df0275524d996463c9b45cbf60da00dc45268d6498",
		}},
		{"recommender", recommenderDSL, map[string]string{
			"edges_rates.csv":   "1d2fa820caa4d01deaffe1a6b508344614eab5d5f59d78f100445ede1b0e6594",
			"nodes_Product.csv": "f784ba0c6d134fcda23a844a9b9fe3117e6ca8fca6936d69e96eda0fadb997ef",
			"nodes_User.csv":    "629fb9c6870a1c71ec7666b492eb3ecc310b3d3de02392739af1a626539d74e0",
		}},
	} {
		s, err := dsl.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := New(s).Generate()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dir := filepath.Join(t.TempDir(), c.name)
		if _, err := d.Export(dir, table.ExportOptions{Format: table.FormatCSV}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := hashDir(t, dir)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d files, want %d", c.name, len(got), len(c.want))
		}
		for file, h := range got {
			if c.want[file] != h {
				t.Errorf("%s: %s hash %s, want %s", c.name, file, h, c.want[file])
			}
		}
	}
}

// TestRefinedBipartiteExportPinned pins the CSV bytes of recommenderDSL
// with one refinement pass on its tail/head correlation: the bipartite
// matcher's refinement, end to end. The node files are the unrefined
// schema's (TestCorrelatedExportsPinned); only the edge file moves.
func TestRefinedBipartiteExportPinned(t *testing.T) {
	s, err := dsl.Parse(strings.Replace(recommenderDSL, "homophily 0.75", "homophily 0.75 passes 1", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := d.Export(dir, table.ExportOptions{Format: table.FormatCSV}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"edges_rates.csv":   "12ea6d391aeace327e4f760aeaec04d5477b0bfdd368b590256c041c5d5e136a",
		"nodes_Product.csv": "f784ba0c6d134fcda23a844a9b9fe3117e6ca8fca6936d69e96eda0fadb997ef",
		"nodes_User.csv":    "629fb9c6870a1c71ec7666b492eb3ecc310b3d3de02392739af1a626539d74e0",
	}
	got := hashDir(t, dir)
	if len(got) != len(want) {
		t.Errorf("%d files, want %d", len(got), len(want))
	}
	for file, h := range got {
		if want[file] != h {
			t.Errorf("%s hash %s, want %s", file, h, want[file])
		}
	}
}
