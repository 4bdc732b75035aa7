package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"datasynth/internal/sgen"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
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

// minAllocated is the least allocated reads over a few runs of f:
// TotalAlloc is process-wide, and the race runtime allocates in the
// background of any one of them.
func minAllocated(f func()) uint64 {
	least := allocated(f)
	for range 4 {
		least = min(least, allocated(f))
	}
	return least
}

// TestFromEdgesNodeBound: a node id must fit a 4-byte adjacency entry,
// and a graph too large for one fails before its CSR is allocated. The
// bound is many orders of magnitude below the ≥ 16 GiB CSR refused.
func TestFromEdgesNodeBound(t *testing.T) {
	const bound = 64 << 10
	var err error
	if b := minAllocated(func() { _, err = FromEdges(nil, nil, 1<<32) }); err == nil || b > bound {
		t.Errorf("FromEdges over 2^32 nodes: err %v after allocating %d bytes", err, b)
	}
	b := minAllocated(func() {
		_, err = FromBipartiteEdges([]uint32{0}, []uint32{1 << 31}, 1<<31, 1<<31+1, nil)
	})
	if err == nil || b > bound {
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
	if _, err := FromEdgeTable(et, 3); err == nil {
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

// checkStreamed builds the full and the streamed CSR of the edge list
// and stream order streamedInput decodes — heads shifted past the tails
// when bipartite, the two one id space otherwise — and checks each
// streamed list is the full list filtered to the neighbours streamed
// before its node: self-loops dropped, edge-list order kept. It returns
// what differs, or "".
func checkStreamed(data []byte, seed uint64, bipartite bool) string {
	tail, head, nTail, nHead, perm := streamedInput(data, seed, bipartite)
	var full, streamed *Graph
	var err, errS error
	rank := make([]uint32, len(perm))
	for i, v := range perm {
		rank[v] = uint32(i)
	}
	if bipartite {
		full, err = FromBipartiteEdges(tail, head, nTail, nHead, nil)
		streamed, errS = FromBipartiteEdges(tail, head, nTail, nHead, rank)
	} else {
		full, err = FromEdges(tail, head, nTail)
		streamed, errS = FromEdgesStreamed(tail, head, nTail, rank)
	}
	if err != nil || errS != nil {
		return fmt.Sprintf("build: %v / %v", err, errS)
	}
	if streamed.N() != full.N() || streamed.M() != full.M() {
		return fmt.Sprintf("streamed N=%d M=%d, full N=%d M=%d", streamed.N(), streamed.M(), full.N(), full.M())
	}
	var kept, loops int64
	for i := range tail {
		if !bipartite && tail[i] == head[i] {
			loops++
		}
	}
	for v := int64(0); v < full.N(); v++ {
		var want []uint32
		for _, u := range full.Neighbors(v) {
			if rank[u] < rank[v] {
				want = append(want, u)
			}
		}
		if got := streamed.Neighbors(v); !slices.Equal(got, want) {
			return fmt.Sprintf("node %d (rank %d): streamed %v, want %v (full %v)", v, rank[v], got, want, full.Neighbors(v))
		}
		kept += int64(len(want))
	}
	if kept != full.M()-loops {
		return fmt.Sprintf("%d entries kept for %d non-loop edges", kept, full.M()-loops)
	}
	return ""
}

// streamedInput decodes an edge list and a stream order from arbitrary
// bytes: pairs of bytes are edges (self-loops and parallel edges come
// for free), the id ranges follow from the first two bytes, and seed
// shuffles the stream.
func streamedInput(data []byte, seed uint64, bipartite bool) (tail, head []uint32, nTail, nHead int64, perm []int64) {
	nTail, nHead = 1, 1
	if len(data) >= 2 {
		nTail, nHead = 1+int64(data[0]%40), 1+int64(data[1]%40)
		data = data[2:]
	}
	if !bipartite {
		nHead = nTail
	}
	for i := 0; i+1 < len(data); i += 2 {
		tail = append(tail, uint32(int64(data[i])%nTail))
		head = append(head, uint32(int64(data[i+1])%nHead))
	}
	n := nTail
	if bipartite {
		n += nHead
	}
	return tail, head, nTail, nHead, shuffled(seed, n)
}

// shuffled is a seeded uniform permutation of [0, n).
func shuffled(seed uint64, n int64) []int64 {
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	xrand.NewSeq(seed).ShuffleInt64(perm)
	return perm
}

// TestStreamedCSRProperty: for arbitrary edge lists, monopartite and
// bipartite, and an arbitrary stream order, each node's streamed list is
// its full list filtered to the neighbours streamed before it, in order.
func TestStreamedCSRProperty(t *testing.T) {
	f := func(data []byte, seed uint64, bipartite bool) bool {
		if msg := checkStreamed(data, seed, bipartite); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromEdgesStreamed([]uint32{0}, []uint32{1}, 3, make([]uint32, 2)); err == nil {
		t.Error("a rank shorter than the node count should fail")
	}
}

// FuzzStreamedCSR is TestStreamedCSRProperty under the fuzzer.
func FuzzStreamedCSR(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 1, 2, 2, 2, 0, 1, 4, 0}, uint64(1), false)
	f.Add([]byte{5, 3, 0, 1, 1, 2, 2, 2, 0, 1, 4, 0}, uint64(2), true)
	f.Add([]byte{}, uint64(0), true)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, bipartite bool) {
		if msg := checkStreamed(data, seed, bipartite); msg != "" {
			t.Fatal(msg)
		}
	})
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
		if g, err = FromEdgeTable(et, n); err != nil {
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
		if _, err := FromEdgeTable(et, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRBuildStreamed is the same build streamed, as a match
// without refinement runs it: each edge once, at its later-streamed end.
func BenchmarkCSRBuildStreamed(b *testing.B) {
	const n = 300_000
	et := lfrEdges(b, n)
	rank := make([]uint32, n)
	for i, v := range shuffled(1, n) {
		rank[v] = uint32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdgesStreamed(et.Tail, et.Head, n, rank); err != nil {
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
