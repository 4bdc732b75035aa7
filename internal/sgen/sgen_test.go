package sgen

import (
	"math"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/table"
)

func mustGraph(t *testing.T, et *table.EdgeTable, n int64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRMATDeterministic(t *testing.T) {
	a, err := NewRMAT(7).Run(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRMAT(7).Run(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.Tail[i] != b.Tail[i] || a.Head[i] != b.Head[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATSeedsDiffer(t *testing.T) {
	a, _ := NewRMAT(1).Run(512)
	b, _ := NewRMAT(2).Run(512)
	same := 0
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := int64(0); i < n; i++ {
		if a.Tail[i] == b.Tail[i] && a.Head[i] == b.Head[i] {
			same++
		}
	}
	if float64(same) > 0.1*float64(n) {
		t.Fatalf("different seeds agree on %d/%d edges", same, n)
	}
}

func TestRMATEdgeCountAndRange(t *testing.T) {
	r := NewRMAT(3)
	n := int64(1 << 10)
	et, err := r.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != r.EdgeFactor*n {
		t.Fatalf("edges = %d, want %d", et.Len(), r.EdgeFactor*n)
	}
	if err := et.Validate(n, n); err != nil {
		t.Fatal(err)
	}
}

func TestRMATNonPowerOfTwo(t *testing.T) {
	r := NewRMAT(3)
	r.EdgeFactor = 4
	n := int64(1000)
	et, err := r.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.Validate(n, n); err != nil {
		t.Fatal(err)
	}
}

func TestRMATNoDuplicatesByDefault(t *testing.T) {
	et, err := NewRMAT(5).Run(256)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint32]bool{}
	for i := int64(0); i < et.Len(); i++ {
		a, b := et.Tail[i], et.Head[i]
		if a == b {
			t.Fatalf("self loop at edge %d", i)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]uint32{a, b}] {
			t.Fatalf("duplicate edge (%d,%d)", a, b)
		}
		seen[[2]uint32{a, b}] = true
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// RMAT with Graph500 parameters must produce a heavy-tailed degree
	// distribution: Gini well above an ER graph's.
	r := NewRMAT(11)
	n := int64(1 << 12)
	et, err := r.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, n)
	if gi := g.GiniDegree(); gi < 0.35 {
		t.Errorf("RMAT degree Gini = %v, want > 0.35 (heavy tail)", gi)
	}
	if md := g.MaxDegree(); md < 4*int64(g.AvgDegree()) {
		t.Errorf("RMAT max degree %d not hub-like (avg %.1f)", md, g.AvgDegree())
	}
}

func TestRMATValidation(t *testing.T) {
	r := NewRMAT(1)
	r.A = 0.9 // sum > 1
	if _, err := r.Run(64); err == nil {
		t.Error("bad probabilities should fail")
	}
	r2 := NewRMAT(1)
	r2.EdgeFactor = 0
	if _, err := r2.Run(64); err == nil {
		t.Error("zero edge factor should fail")
	}
	if _, err := NewRMAT(1).Run(0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestRMATNumNodesForEdges(t *testing.T) {
	r := NewRMAT(1)
	n, err := r.NumNodesForEdges(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<16 {
		t.Errorf("NumNodesForEdges(2^20) = %d, want 2^16", n)
	}
	if _, err := r.NumNodesForEdges(0); err == nil {
		t.Error("numEdges=0 should fail")
	}
}

func TestRMATRunScale(t *testing.T) {
	et, err := NewRMAT(2).RunScale(8)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 16*256 {
		t.Errorf("scale-8 edges = %d, want %d", et.Len(), 16*256)
	}
}

func TestLFRBasicProperties(t *testing.T) {
	l := NewLFR(42)
	n := int64(2000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.Validate(n, n); err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, n)
	if avg := g.AvgDegree(); avg < 12 || avg > 26 {
		t.Errorf("LFR avg degree = %v, want ~20", avg)
	}
	if md := g.MaxDegree(); md > 50 {
		t.Errorf("LFR max degree = %d, want <= 50", md)
	}
}

func TestLFRCommunities(t *testing.T) {
	l := NewLFR(42)
	n := int64(2000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	comm := l.Communities()
	if int64(len(comm)) != n {
		t.Fatalf("communities len = %d", len(comm))
	}
	g := mustGraph(t, et, n)
	// Mixing must be near mu = 0.1.
	if mu := g.MixingFraction(comm); mu > 0.2 {
		t.Errorf("LFR empirical mixing = %v, want ~0.1", mu)
	}
	// Ground-truth communities must yield high modularity.
	if q := g.Modularity(comm); q < 0.5 {
		t.Errorf("LFR modularity = %v, want > 0.5", q)
	}
	// Community sizes must respect bounds (last may merge a tail).
	sizes := map[int64]int{}
	for _, c := range comm {
		sizes[c]++
	}
	for c, sz := range sizes {
		if sz < l.MinCommunity || sz > l.MaxCommunity+l.MinCommunity {
			t.Errorf("community %d has size %d outside [%d,%d]", c, sz, l.MinCommunity, l.MaxCommunity+l.MinCommunity)
		}
	}
}

func TestLFRDeterministic(t *testing.T) {
	a, err := NewLFR(9).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLFR(9).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.Tail[i] != b.Tail[i] || a.Head[i] != b.Head[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestLFRMuZeroNearZeroMixing(t *testing.T) {
	// With mu = 0 mixing should be almost zero. It cannot be exactly
	// zero: a node whose degree exceeds the largest community cannot fit
	// all its stubs internally, and the greedy placement spills the
	// remainder to inter edges (the paper: "strict constraints cannot be
	// fully guaranteed").
	l := NewLFR(3)
	l.Mu = 0
	et, err := l.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, 500)
	if mu := g.MixingFraction(l.Communities()); mu > 0.05 {
		t.Errorf("mu=0 run has mixing %v, want < 0.05", mu)
	}
}

func TestLFRHighMu(t *testing.T) {
	l := NewLFR(3)
	l.Mu = 0.5
	et, err := l.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, 1000)
	mu := g.MixingFraction(l.Communities())
	if mu < 0.3 || mu > 0.7 {
		t.Errorf("mu=0.5 run has mixing %v", mu)
	}
}

func TestLFRValidation(t *testing.T) {
	l := NewLFR(1)
	if _, err := l.Run(5); err == nil {
		t.Error("n below min community should fail")
	}
	l2 := NewLFR(1)
	l2.Mu = 1.5
	if _, err := l2.Run(100); err == nil {
		t.Error("mu > 1 should fail")
	}
	l3 := NewLFR(1)
	l3.MaxDegree = 5
	if _, err := l3.Run(100); err == nil {
		t.Error("max degree below avg should fail")
	}
}

func TestLFRNumNodesForEdges(t *testing.T) {
	l := NewLFR(1)
	n, err := l.NumNodesForEdges(100000)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10000) // m = n*20/2
	if n != want {
		t.Errorf("NumNodesForEdges = %d, want %d", n, want)
	}
}

func TestBTERDegreeDistribution(t *testing.T) {
	b, err := NewBTERPowerLaw(3000, 2, 40, 2.0, 17)
	if err != nil {
		t.Fatal(err)
	}
	et, err := b.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, 3000)
	// Heavy tail expected.
	if gi := g.GiniDegree(); gi < 0.2 {
		t.Errorf("BTER degree Gini = %v, want > 0.2", gi)
	}
	// BTER's signature: substantial clustering from affinity blocks.
	if cc := g.AvgClustering(0, 0); cc < 0.1 {
		t.Errorf("BTER avg clustering = %v, want > 0.1", cc)
	}
}

func TestBTERPositiveAssortativityTendency(t *testing.T) {
	// The paper notes BTER produces positive assortativity as a side
	// effect of blocking same-degree nodes together.
	b, err := NewBTERPowerLaw(4000, 2, 30, 2.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	et, err := b.Run(4000)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(t, et, 4000)
	if a := g.DegreeAssortativity(); !math.IsNaN(a) && a < -0.05 {
		t.Errorf("BTER assortativity = %v, want >= ~0", a)
	}
}

func TestBTERValidation(t *testing.T) {
	b := NewBTER(nil, 1)
	if _, err := b.Run(100); err == nil {
		t.Error("empty distribution should fail")
	}
	if _, err := NewBTERPowerLaw(10, 5, 2, 2, 1); err == nil {
		t.Error("bad bounds should fail")
	}
	b2 := NewBTER([]int64{0, 10}, 1)
	if _, err := b2.Run(0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestBTERNumNodesForEdges(t *testing.T) {
	// All nodes degree 4 -> m = 2n.
	b := NewBTER([]int64{0, 0, 0, 0, 100}, 1)
	n, err := b.NumNodesForEdges(2000)
	if err != nil {
		t.Fatal(err)
	}
	if n < 900 || n > 1100 {
		t.Errorf("NumNodesForEdges = %d, want ~1000", n)
	}
}

func TestErdosRenyiBasics(t *testing.T) {
	g := NewErdosRenyi(5, 31)
	n := int64(1000)
	et, err := g.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 5000 {
		t.Errorf("edges = %d, want 5000", et.Len())
	}
	if err := et.Validate(n, n); err != nil {
		t.Fatal(err)
	}
	gr := mustGraph(t, et, n)
	// ER should have near-zero clustering and low Gini.
	if cc := gr.AvgClustering(0, 0); cc > 0.05 {
		t.Errorf("ER clustering = %v, want ~0.01", cc)
	}
	if gi := gr.GiniDegree(); gi > 0.25 {
		t.Errorf("ER Gini = %v, want small", gi)
	}
}

func TestErdosRenyiCapsAtCompleteGraph(t *testing.T) {
	g := NewErdosRenyi(100, 1) // way more than possible for n=10
	et, err := g.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 45 {
		t.Errorf("edges = %d, want 45 (complete K10)", et.Len())
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g := NewBarabasiAlbert(3, 13)
	n := int64(3000)
	et, err := g.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	gr := mustGraph(t, et, n)
	if gi := gr.GiniDegree(); gi < 0.3 {
		t.Errorf("BA Gini = %v, want > 0.3", gi)
	}
	if f := gr.LargestComponentFraction(); f < 0.99 {
		t.Errorf("BA connected fraction = %v, want ~1", f)
	}
	alpha := gr.PowerLawAlphaMLE(3)
	if alpha < 1.8 || alpha > 4.5 {
		t.Errorf("BA alpha = %v, want in [1.8, 4.5]", alpha)
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	if _, err := NewBarabasiAlbert(0, 1).Run(100); err == nil {
		t.Error("M=0 should fail")
	}
	if _, err := NewBarabasiAlbert(10, 1).Run(5); err == nil {
		t.Error("n<=M should fail")
	}
}

func TestWattsStrogatzSmallWorld(t *testing.T) {
	g := NewWattsStrogatz(5, 0.1, 19)
	n := int64(1000)
	et, err := g.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	gr := mustGraph(t, et, n)
	// Low rewiring keeps high clustering.
	if cc := gr.AvgClustering(0, 0); cc < 0.3 {
		t.Errorf("WS clustering = %v, want > 0.3", cc)
	}
	// Diameter should be small compared to the n/(2k) ring diameter.
	if d := gr.ApproxDiameter(4, 1); d > 50 {
		t.Errorf("WS diameter = %d, want small-world", d)
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	if _, err := NewWattsStrogatz(0, 0.1, 1).Run(100); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := NewWattsStrogatz(2, 2, 1).Run(100); err == nil {
		t.Error("beta>1 should fail")
	}
	if _, err := NewWattsStrogatz(10, 0.1, 1).Run(5); err == nil {
		t.Error("n < 2K+1 should fail")
	}
}

func TestNumNodesForEdgesRoundTrip(t *testing.T) {
	// For every monopartite generator: Run(NumNodesForEdges(m)) should
	// produce roughly m edges.
	gens := []Generator{
		NewRMAT(1),
		NewLFR(1),
		NewErdosRenyi(8, 1),
		NewBarabasiAlbert(4, 1),
		NewWattsStrogatz(4, 0.1, 1),
	}
	target := int64(20000)
	for _, g := range gens {
		n, err := g.NumNodesForEdges(target)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		et, err := g.Run(n)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		ratio := float64(et.Len()) / float64(target)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: Run(NumNodesForEdges(%d)) gave %d edges (ratio %.2f)",
				g.Name(), target, et.Len(), ratio)
		}
	}
}

// TestLFRLargeCommunityFallback: communities whose size² exceeds the
// direct-dedup stamp budget take the sorted-key path; the wiring must
// stay deterministic and free of self-loops and duplicate edges.
func TestLFRLargeCommunityFallback(t *testing.T) {
	build := func() *table.EdgeTable {
		l := NewLFR(3)
		l.MinCommunity = 2100
		l.MaxCommunity = 2200
		et, err := l.Run(4300)
		if err != nil {
			t.Fatal(err)
		}
		return et
	}
	et := build()
	if et.Len() == 0 {
		t.Fatal("no edges")
	}
	seen := map[[2]uint32]bool{}
	for i := range et.Tail {
		a, b := et.Tail[i], et.Head[i]
		if a == b {
			t.Fatalf("self-loop at edge %d (%d)", i, a)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]uint32{a, b}] {
			t.Fatalf("duplicate edge (%d,%d)", a, b)
		}
		seen[[2]uint32{a, b}] = true
	}
	again := build()
	if again.Len() != et.Len() {
		t.Fatalf("non-deterministic: %d vs %d edges", et.Len(), again.Len())
	}
	for i := range et.Tail {
		if et.Tail[i] != again.Tail[i] || et.Head[i] != again.Head[i] {
			t.Fatalf("non-deterministic at edge %d", i)
		}
	}
}
