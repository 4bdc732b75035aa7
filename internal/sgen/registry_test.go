package sgen

import (
	"strings"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/table"
)

func TestRegistryBuildAllMono(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		params map[string]string
	}{
		{"rmat", map[string]string{"a": "0.6", "b": "0.15", "c": "0.15", "d": "0.1", "edgeFactor": "8"}},
		{"lfr", map[string]string{"avgDegree": "15", "maxDegree": "40", "mu": "0.2"}},
		{"bter", map[string]string{"dmin": "2", "dmax": "30", "gamma": "2.1"}},
		{"darwini", map[string]string{"dmin": "2", "dmax": "30", "spread": "0.4"}},
		{"cascade", map[string]string{"minSize": "2", "maxSize": "50", "preferRecent": "0.5"}},
		{"erdos-renyi", map[string]string{"edgesPerNode": "4"}},
		{"barabasi-albert", map[string]string{"m": "3"}},
		{"watts-strogatz", map[string]string{"k": "3", "beta": "0.2"}},
	}
	for _, c := range cases {
		g, err := r.BuildMono(c.name, c.params, 5)
		if err != nil {
			t.Errorf("BuildMono(%s): %v", c.name, err)
			continue
		}
		et, err := g.Run(500)
		if err != nil {
			t.Errorf("%s.Run: %v", c.name, err)
			continue
		}
		if et.Len() == 0 {
			t.Errorf("%s produced no edges", c.name)
		}
		if err := et.Validate(500, 500); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestRegistryBuildAllBipartite(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		params map[string]string
		nHead  int64
	}{
		{"powerlaw-out", map[string]string{"min": "1", "max": "5", "gamma": "2"}, -1},
		{"zipf-attachment", map[string]string{"min": "1", "max": "5", "theta": "1.1"}, 100},
		{"one-to-one", nil, -1},
		{"uniform-bipartite", map[string]string{"avgOut": "2"}, 100},
	}
	for _, c := range cases {
		g, err := r.BuildBipartite(c.name, c.params, 5)
		if err != nil {
			t.Errorf("BuildBipartite(%s): %v", c.name, err)
			continue
		}
		et, err := g.RunBipartite(200, c.nHead)
		if err != nil {
			t.Errorf("%s.RunBipartite: %v", c.name, err)
			continue
		}
		if et.Len() == 0 {
			t.Errorf("%s produced no edges", c.name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.BuildMono("nope", nil, 1); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Error("unknown mono should fail")
	}
	if _, err := r.BuildBipartite("nope", nil, 1); err == nil {
		t.Error("unknown bipartite should fail")
	}
	if _, err := r.BuildMono("rmat", map[string]string{"a": "x"}, 1); err == nil {
		t.Error("bad float param should fail")
	}
	if _, err := r.BuildMono("barabasi-albert", map[string]string{"m": "x"}, 1); err == nil {
		t.Error("bad int param should fail")
	}
	if !r.HasMono("lfr") || r.HasMono("powerlaw-out") {
		t.Error("HasMono misclassifies")
	}
	if len(r.MonoNames()) < 8 || len(r.BipartiteNames()) < 4 {
		t.Errorf("names: %v / %v", r.MonoNames(), r.BipartiteNames())
	}
}

func TestDarwiniProperties(t *testing.T) {
	d, err := NewDarwiniPowerLaw(4000, 2, 40, 2.0, 17)
	if err != nil {
		t.Fatal(err)
	}
	et, err := d.Run(4000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Darwini keeps BTER's signatures: heavy-tailed degrees and
	// substantial clustering.
	if gi := g.GiniDegree(); gi < 0.2 {
		t.Errorf("Darwini Gini = %v, want > 0.2", gi)
	}
	if cc := g.AvgClustering(0, 0); cc < 0.1 {
		t.Errorf("Darwini clustering = %v, want > 0.1", cc)
	}
}

func TestDarwiniSpreadWidensCCD(t *testing.T) {
	// The ccdd refinement: with spread > 0, the per-node clustering
	// values at a fixed degree must have higher variance than with
	// spread = 0.
	variance := func(spread float64) float64 {
		d, err := NewDarwiniPowerLaw(4000, 4, 30, 2.0, 23)
		if err != nil {
			t.Fatal(err)
		}
		d.CCSpread = spread
		et, err := d.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromEdgeTable(et, 4000)
		if err != nil {
			t.Fatal(err)
		}
		// Use mid-degree nodes where clustering is informative.
		var vals []float64
		for v := int64(0); v < g.N(); v++ {
			if deg := g.Degree(v); deg >= 4 && deg <= 12 {
				vals = append(vals, g.LocalClustering(v))
			}
		}
		if len(vals) < 50 {
			t.Fatalf("too few mid-degree nodes (%d)", len(vals))
		}
		var mean, sq float64
		for _, x := range vals {
			mean += x
		}
		mean /= float64(len(vals))
		for _, x := range vals {
			sq += (x - mean) * (x - mean)
		}
		return sq / float64(len(vals))
	}
	if vWide, vNarrow := variance(0.8), variance(0); vWide <= vNarrow {
		t.Errorf("ccd variance with spread (%v) not above without (%v)", vWide, vNarrow)
	}
}

func TestDarwiniValidation(t *testing.T) {
	d := &Darwini{}
	if _, err := d.Run(100); err == nil {
		t.Error("empty distribution should fail")
	}
	d2, _ := NewDarwiniPowerLaw(1000, 2, 20, 2, 1)
	d2.CCSpread = 2
	if _, err := d2.Run(100); err == nil {
		t.Error("spread > 1 should fail")
	}
	if _, err := d2.Run(0); err == nil {
		t.Error("n = 0 should fail")
	}
}

func TestDarwiniNumNodesForEdges(t *testing.T) {
	d, err := NewDarwiniPowerLaw(1000, 4, 4, 2, 1) // all degree 4
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.NumNodesForEdges(2000)
	if err != nil {
		t.Fatal(err)
	}
	if n < 900 || n > 1100 {
		t.Errorf("NumNodesForEdges = %d, want ~1000", n)
	}
}

// TestRegistryRejectsUnreadParameters: every built-in factory refuses a
// parameter name it does not read — a misspelt name must not run with
// the default — names it in the error, and still builds from no
// parameters at all.
func TestRegistryRejectsUnreadParameters(t *testing.T) {
	r := NewRegistry()
	stray := map[string]string{"noSuchParameter": "1"}
	for _, name := range r.MonoNames() {
		if _, err := r.BuildMono(name, nil, 1); err != nil {
			t.Errorf("%s with its defaults: %v", name, err)
		}
		if _, err := r.BuildMono(name, stray, 1); err == nil || !strings.Contains(err.Error(), name+" has no parameter noSuchParameter") {
			t.Errorf("%s(noSuchParameter=1) = %v, want the parameter refused by name", name, err)
		}
	}
	for _, name := range r.BipartiteNames() {
		if _, err := r.BuildBipartite(name, nil, 1); err != nil {
			t.Errorf("%s with its defaults: %v", name, err)
		}
		if _, err := r.BuildBipartite(name, stray, 1); err == nil || !strings.Contains(err.Error(), name+" has no parameter noSuchParameter") {
			t.Errorf("%s(noSuchParameter=1) = %v, want the parameter refused by name", name, err)
		}
	}
	// A generator that fails its own Validate never leaves the registry.
	if _, err := r.BuildBipartite("zipf-attachment", map[string]string{"theta": "0"}, 1); err == nil || !strings.Contains(err.Error(), "theta > 0") {
		t.Errorf("zipf-attachment(theta=0) = %v, want Validate's error", err)
	}
}

// TestRegistryGeneratorsPinned pins the edge tables of the structure
// generators no other golden covers, built through the registry as a
// schema builds them: the defaults, Erdős–Rényi asked for more edges
// than the densest simple graph holds, and BTER and Darwini with degree-1
// nodes (dmin=1), which take their own branch, and Darwini without its
// clustering spread. A change here means the generator's draws changed
// for existing seeds, which needs a core.SchemaVersion bump.
func TestRegistryGeneratorsPinned(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		params map[string]string
		seed   uint64
		n      int64 // tails, for a bipartite generator
		nHead  int64 // 0 for a monopartite generator
		edges  int64
		want   string
	}{
		{"bter", map[string]string{}, 11, 3000, 0, 8097, "06ac516265d7b55ef2bf24ca7916c439360d2a26393ef68e3b6b152662e9f3ec"},
		{"bter", map[string]string{"dmin": "1", "dmax": "40", "gamma": "1.8"}, 12, 2000, 0, 3151, "c7d234d8c35e209f0f0a96acb179133c0df87df48bc992d1951be2d51c80e607"},
		{"darwini", map[string]string{}, 13, 3000, 0, 8342, "b4d83b85ea5218cac039c13f9dee1c63aca0552ee82884c13b319243497f42e5"},
		{"darwini", map[string]string{"dmin": "1", "dmax": "40", "gamma": "1.8"}, 14, 2000, 0, 3702, "a6eba12904e233b9e1035ab933be16b3b53285f377f17d5f2f343e372a7bf6c9"},
		{"darwini", map[string]string{"spread": "0"}, 15, 2000, 0, 5250, "cc499734893d3915b9002810dd4cd6c37f47fcbfe49828f96079a94e862bd286"},
		{"barabasi-albert", map[string]string{}, 16, 3000, 0, 11990, "63bd39e6829c8b59e504516eb23f8e9eb6304d5d927fef05bbd48fbd8255f1dd"},
		{"watts-strogatz", map[string]string{}, 17, 3000, 0, 12000, "57eb02bce366e81b9e12decab5b2e071ccb1d0a38c4b05ec3be8674bd5463ddc"},
		{"erdos-renyi", map[string]string{}, 19, 3000, 0, 24000, "36dacb5a052a613b55a223191dfed18ff3a8c8957c89fb95252e35cee31101d6"},
		{"erdos-renyi", map[string]string{"edgesPerNode": "30"}, 20, 50, 0, 1225, "b2cc08e19a819f3fd5f52949e304da5c403545664bebcc371c100f75f6e22d10"},
		{"uniform-bipartite", map[string]string{}, 18, 3000, 700, 9000, "95b5d93caff5290018f26e371ce33aa0a69d117c8044320ac119d217a9d0e045"},
	}
	for _, c := range cases {
		var et *table.EdgeTable
		var err error
		if c.nHead > 0 {
			var g BipartiteGenerator
			if g, err = r.BuildBipartite(c.name, c.params, c.seed); err == nil {
				et, err = g.RunBipartite(c.n, c.nHead)
			}
		} else {
			var g Generator
			if g, err = r.BuildMono(c.name, c.params, c.seed); err == nil {
				et, err = g.Run(c.n)
			}
		}
		if err != nil {
			t.Fatalf("%s(%v): %v", c.name, c.params, err)
		}
		if got := edgeTableSHA256(et); et.Len() != c.edges || got != c.want {
			t.Errorf("%s(%v) seed %d: %d edges hash %s, want %d edges hash %s",
				c.name, c.params, c.seed, et.Len(), got, c.edges, c.want)
		}
	}
}
