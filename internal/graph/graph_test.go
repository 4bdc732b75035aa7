package graph

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"datasynth/internal/sgen"
	"datasynth/internal/table"
)

// triangle returns K3.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges([]uint32{0, 1, 2}, []uint32{1, 2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// path returns the path 0-1-2-3.
func path(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges([]uint32{0, 1, 2}, []uint32{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges([]uint32{0}, []uint32{}, 2); err == nil {
		t.Error("ragged edges should fail")
	}
	if _, err := FromEdges([]uint32{0}, []uint32{5}, 2); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	if _, err := FromEdges([]uint32{math.MaxUint32}, []uint32{0}, 2); err == nil {
		t.Error("endpoint 2^32-1 (a wrapped -1) should fail")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFromEdgesNodeBound: a node id must fit a 4-byte adjacency entry,
// and a graph too large for one fails before its CSR is allocated.
func TestFromEdgesNodeBound(t *testing.T) {
	var err error
	if b := allocated(func() { _, err = FromEdges(nil, nil, 1<<32) }); err == nil || b > 1<<10 {
		t.Errorf("FromEdges over 2^32 nodes: err %v after allocating %d bytes", err, b)
	}
	b := allocated(func() {
		_, err = new(Builder).FromBipartiteEdges([]uint32{0}, []uint32{1 << 31}, 1<<31, 1<<31+1)
	})
	if err == nil || b > 1<<10 {
		t.Errorf("FromBipartiteEdges over 2^32 nodes: err %v after allocating %d bytes", err, b)
	}
}

func TestFromEdgeTable(t *testing.T) {
	et := table.NewEdgeTable("e", 2)
	et.Add(0, 1)
	et.Add(1, 2)
	g, err := FromEdgeTable(et, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
	if _, err := FromEdgeTable(et, 2); err == nil {
		t.Error("node bound should be enforced")
	}
	et.Head = et.Head[:1]
	if _, err := new(Builder).FromEdgeTable(et, 3); err == nil {
		t.Error("ragged edge table should fail")
	}
}

func TestDegrees(t *testing.T) {
	g := path(t)
	want := []int64{1, 2, 2, 1}
	for v, d := range want {
		if g.Degree(int64(v)) != d {
			t.Errorf("deg(%d) = %d, want %d", v, g.Degree(int64(v)), d)
		}
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if math.Abs(g.AvgDegree()-1.5) > 1e-12 {
		t.Errorf("AvgDegree = %v", g.AvgDegree())
	}
	h := g.DegreeHistogram()
	if h[1] != 2 || h[2] != 2 {
		t.Errorf("histogram = %v", h)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g, err := FromEdges([]uint32{0}, []uint32{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 {
		t.Errorf("self-loop degree = %d, want 1", g.Degree(0))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := path(t)
	n1 := g.Neighbors(1)
	if len(n1) != 2 {
		t.Fatalf("neighbors(1) = %v", n1)
	}
	found0, found2 := false, false
	for _, u := range n1 {
		if u == 0 {
			found0 = true
		}
		if u == 2 {
			found2 = true
		}
	}
	if !found0 || !found2 {
		t.Errorf("neighbors(1) = %v, want {0,2}", n1)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: 0-1 and 2-3-4.
	g, err := FromEdges([]uint32{0, 2, 3}, []uint32{1, 3, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	labels, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("components = %d, want 2", k)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[3] != labels[4] {
		t.Errorf("labels = %v", labels)
	}
	if labels[0] == labels[2] {
		t.Errorf("components merged: %v", labels)
	}
	if f := g.LargestComponentFraction(); math.Abs(f-0.6) > 1e-12 {
		t.Errorf("largest fraction = %v, want 0.6", f)
	}
}

func TestIsolatedNodesAreComponents(t *testing.T) {
	g, err := FromEdges(nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, k := g.ConnectedComponents()
	if k != 3 {
		t.Errorf("components = %d, want 3", k)
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(t)
	d := g.BFSDistances(0)
	want := []int64{0, 1, 2, 3}
	for v := range want {
		if d[v] != want[v] {
			t.Errorf("dist(0,%d) = %d, want %d", v, d[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g, err := FromEdges([]uint32{0}, []uint32{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := g.BFSDistances(0)
	if d[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", d[2])
	}
}

func TestApproxDiameterPath(t *testing.T) {
	g := path(t)
	if d := g.ApproxDiameter(4, 1); d != 3 {
		t.Errorf("diameter = %d, want 3", d)
	}
}

func TestLocalClusteringTriangle(t *testing.T) {
	g := triangle(t)
	for v := int64(0); v < 3; v++ {
		if c := g.LocalClustering(v); math.Abs(c-1) > 1e-12 {
			t.Errorf("clustering(%d) = %v, want 1", v, c)
		}
	}
	if c := g.AvgClustering(0, 0); math.Abs(c-1) > 1e-12 {
		t.Errorf("avg clustering = %v, want 1", c)
	}
}

func TestLocalClusteringPath(t *testing.T) {
	g := path(t)
	for v := int64(0); v < 4; v++ {
		if c := g.LocalClustering(v); c != 0 {
			t.Errorf("clustering(%d) = %v, want 0", v, c)
		}
	}
}

func TestClusteringPerDegree(t *testing.T) {
	g := triangle(t)
	ccd := g.ClusteringPerDegree()
	if len(ccd) != 3 {
		t.Fatalf("ccd len = %d", len(ccd))
	}
	if math.Abs(ccd[2]-1) > 1e-12 {
		t.Errorf("ccd[2] = %v, want 1", ccd[2])
	}
	if !math.IsNaN(ccd[0]) || !math.IsNaN(ccd[1]) {
		t.Errorf("absent degrees should be NaN: %v", ccd)
	}
}

func TestAssortativityStar(t *testing.T) {
	// A star is maximally disassortative.
	g, err := FromEdges([]uint32{0, 0, 0, 0}, []uint32{1, 2, 3, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a := g.DegreeAssortativity(); a > -0.99 {
		t.Errorf("star assortativity = %v, want ~-1", a)
	}
}

func TestAssortativityRegular(t *testing.T) {
	// Cycle: all degrees equal, zero variance -> NaN.
	g, err := FromEdges([]uint32{0, 1, 2, 3}, []uint32{1, 2, 3, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a := g.DegreeAssortativity(); !math.IsNaN(a) {
		t.Errorf("regular graph assortativity = %v, want NaN", a)
	}
}

func TestModularityPerfectSplit(t *testing.T) {
	// Two disjoint triangles with matching labels: Q = 0.5.
	g, err := FromEdges(
		[]uint32{0, 1, 2, 3, 4, 5},
		[]uint32{1, 2, 0, 4, 5, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int64{0, 0, 0, 1, 1, 1}
	if q := g.Modularity(labels); math.Abs(q-0.5) > 1e-12 {
		t.Errorf("modularity = %v, want 0.5", q)
	}
	// All-in-one labelling: Q = 0.
	if q := g.Modularity(make([]int64, 6)); math.Abs(q) > 1e-12 {
		t.Errorf("single-community modularity = %v, want 0", q)
	}
}

func TestMixingFraction(t *testing.T) {
	g, err := FromEdges([]uint32{0, 1}, []uint32{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Labels 0,0,1: edge 0-1 intra, edge 1-2 inter -> mixing 0.5.
	if mu := g.MixingFraction([]int64{0, 0, 1}); math.Abs(mu-0.5) > 1e-12 {
		t.Errorf("mixing = %v, want 0.5", mu)
	}
}

func TestGiniDegreeExtremes(t *testing.T) {
	cycle, _ := FromEdges([]uint32{0, 1, 2, 3}, []uint32{1, 2, 3, 0}, 4)
	if gi := cycle.GiniDegree(); math.Abs(gi) > 1e-9 {
		t.Errorf("regular Gini = %v, want 0", gi)
	}
	star, _ := FromEdges([]uint32{0, 0, 0, 0, 0, 0}, []uint32{1, 2, 3, 4, 5, 6}, 7)
	if gi := star.GiniDegree(); gi < 0.3 {
		t.Errorf("star Gini = %v, want > 0.3", gi)
	}
}

func TestPowerLawAlphaMLE(t *testing.T) {
	// Star graph has one huge degree; MLE over dmin=1 should exceed 1.
	star, _ := FromEdges([]uint32{0, 0, 0, 0}, []uint32{1, 2, 3, 4}, 5)
	if a := star.PowerLawAlphaMLE(1); math.IsNaN(a) || a <= 1 {
		t.Errorf("alpha = %v", a)
	}
}

func TestCSRInvariantProperty(t *testing.T) {
	// Property: for arbitrary edge lists, sum of degrees equals
	// 2*m - selfloops, and each node's neighbours are the edge list's
	// entries for it in edge-list order (the stream matcher's scan
	// order, and with it the matched bytes, depends on that order).
	f := func(pairs []uint16) bool {
		const n = 32
		tails := make([]uint32, len(pairs))
		heads := make([]uint32, len(pairs))
		selfLoops := int64(0)
		want := make([][]uint32, n)
		for i, p := range pairs {
			tails[i] = uint32(p % n)
			heads[i] = uint32((p / n) % n)
			want[tails[i]] = append(want[tails[i]], heads[i])
			if tails[i] == heads[i] {
				selfLoops++
			} else {
				want[heads[i]] = append(want[heads[i]], tails[i])
			}
		}
		g, err := FromEdges(tails, heads, n)
		if err != nil {
			return false
		}
		var degSum int64
		for v := int64(0); v < n; v++ {
			degSum += g.Degree(v)
			if !slices.Equal(g.Neighbors(v), want[v]) {
				return false
			}
		}
		return degSum == 2*int64(len(pairs))-selfLoops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// lfrEdges returns an LFR graph at the paper's parameters, the shape
// of the social schema's knows edges.
func lfrEdges(tb testing.TB, n int64) *table.EdgeTable {
	tb.Helper()
	et, err := sgen.NewLFR(1).Run(n)
	if err != nil {
		tb.Fatal(err)
	}
	return et
}

// TestCSRBytesPerEdge pins the CSR's footprint: a build allocates 4
// bytes per adjacency entry and 8 per node, nothing else of its size
// (an int64 adjacency and a separate degree buffer would take 8 + 16).
func TestCSRBytesPerEdge(t *testing.T) {
	const n = 20_000
	et := lfrEdges(t, n)
	var g *Graph
	b := allocated(func() {
		var err error
		if g, err = new(Builder).FromEdgeTable(et, n); err != nil {
			t.Fatal(err)
		}
	})
	entries := 2 * g.M() // no self-loops in LFR
	want := 4*entries + 8*(n+1)
	t.Logf("%d bytes for %d entries and %d nodes (%.2f B per entry)", b, entries, n, float64(b)/float64(entries))
	if int64(b) > want+32<<10 {
		t.Errorf("CSR build allocated %d bytes, want ≤ %d + 32 KiB", b, want)
	}
}

// BenchmarkCSRBuild is the match task's CSR build on the social
// schema's knows edges (LFR, 300k nodes, ≈ 2.9M edges).
func BenchmarkCSRBuild(b *testing.B) {
	const n = 300_000
	et := lfrEdges(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(Builder).FromEdgeTable(et, n); err != nil {
			b.Fatal(err)
		}
	}
}

func TestModularityBounds(t *testing.T) {
	// Property: modularity always <= 1 and >= -1 for random labelled
	// graphs.
	f := func(pairs []uint16, labelSeed uint8) bool {
		const n = 24
		tails := make([]uint32, 0, len(pairs))
		heads := make([]uint32, 0, len(pairs))
		for _, p := range pairs {
			tails = append(tails, uint32(p%n))
			heads = append(heads, uint32((p/n)%n))
		}
		g, err := FromEdges(tails, heads, n)
		if err != nil {
			return false
		}
		labels := make([]int64, n)
		for i := range labels {
			labels[i] = int64((int(labelSeed) + i*7) % 4)
		}
		q := g.Modularity(labels)
		return q <= 1.0+1e-9 && q >= -1.0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
