package match

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// twoCliques builds two disjoint cliques of size sz each.
func twoCliques(t *testing.T, sz int64) (*table.EdgeTable, *graph.Graph) {
	t.Helper()
	et := table.NewEdgeTable("cliques", sz*(sz-1))
	for c := int64(0); c < 2; c++ {
		base := c * sz
		for a := int64(0); a < sz; a++ {
			for b := a + 1; b < sz; b++ {
				et.Add(base+a, base+b)
			}
		}
	}
	g, err := graph.FromEdgeTable(et, 2*sz)
	if err != nil {
		t.Fatal(err)
	}
	return et, g
}

// diagTarget returns a perfectly homophilous 2-value target.
func diagTarget() *stats.Joint {
	j := stats.NewJoint(2)
	j.Set(0, 0, 0.5)
	j.Set(1, 1, 0.5)
	return j
}

func TestSBMPartSeparatesCliques(t *testing.T) {
	_, g := twoCliques(t, 20)
	part, err := NewSBMPart(diagTarget(), []int64{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := assigned(part.partition(g, RandomOrder(40, 7), make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy streaming cannot guarantee perfect separation (the paper:
	// "does not guarantee an optimal solution"), but each clique must be
	// dominated by one group and the cliques must prefer different
	// groups.
	maj := func(c int64) (uint32, int) {
		counts := map[uint32]int{}
		for v := c * 20; v < (c+1)*20; v++ {
			counts[assign[v]]++
		}
		var bestG uint32
		best := -1
		for g, n := range counts {
			if n > best {
				best = n
				bestG = g
			}
		}
		return bestG, best
	}
	g0, n0 := maj(0)
	g1, n1 := maj(1)
	if n0 < 16 || n1 < 16 {
		t.Fatalf("cliques not strongly separated: purity %d/20 and %d/20", n0, n1)
	}
	if g0 == g1 {
		t.Fatal("both cliques prefer the same group")
	}
}

func TestSBMPartRespectsCapacities(t *testing.T) {
	_, g := twoCliques(t, 10)
	target := stats.NewJoint(3)
	target.Set(0, 0, 0.4)
	target.Set(1, 1, 0.4)
	target.Set(0, 2, 0.2)
	part, err := NewSBMPart(target, []int64{8, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := assigned(part.partition(g, RandomOrder(20, 3), make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 3)
	for _, a := range assign {
		if a == unassigned {
			t.Fatal("node left unassigned")
		}
		counts[a]++
	}
	if counts[0] > 8 || counts[1] > 8 || counts[2] > 4 {
		t.Fatalf("capacities violated: %v", counts)
	}
}

func TestSBMPartDeterministic(t *testing.T) {
	_, g := twoCliques(t, 15)
	mk := func() []uint32 {
		part, err := NewSBMPart(diagTarget(), []int64{15, 15})
		if err != nil {
			t.Fatal(err)
		}
		assign, err := assigned(part.partition(g, RandomOrder(30, 11), make([]uint32, g.N()), 0))
		if err != nil {
			t.Fatal(err)
		}
		return assign
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment differs at node %d", i)
		}
	}
}

func TestSBMPartValidation(t *testing.T) {
	if _, err := NewSBMPart(nil, nil); err == nil {
		t.Error("nil target should fail")
	}
	j := stats.NewJoint(2)
	j.Set(0, 0, 1)
	if _, err := NewSBMPart(j, []int64{1}); err == nil {
		t.Error("capacity count mismatch should fail")
	}
	bad := stats.NewJoint(2)
	bad.Set(0, 0, 0.3) // mass != 1
	if _, err := NewSBMPart(bad, []int64{1, 1}); err == nil {
		t.Error("improper target should fail")
	}
	if _, err := NewSBMPart(j, []int64{-1, 2}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := NewSBMPart(diagBipTarget(), []int64{1, 1, 1, 1}); err == nil || !strings.Contains(err.Error(), "MatchBipartite") {
		t.Errorf("two-domain target: err = %v, want a refusal naming MatchBipartite", err)
	}
}

func TestSBMPartInsufficientCapacity(t *testing.T) {
	_, g := twoCliques(t, 5)
	if _, _, err := streamOrder(RandomOrder(10, 1), g.N(), 0, []int64{4, 4}); err == nil {
		t.Error("insufficient capacity should fail")
	}
}

func TestSBMPartBadOrder(t *testing.T) {
	_, g := twoCliques(t, 5)
	capacities := []int64{5, 5}
	if _, _, err := streamOrder([]uint32{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, g.N(), 0, capacities); err == nil {
		t.Error("repeated node in order should fail")
	}
	if _, _, err := streamOrder([]uint32{0}, g.N(), 0, capacities); err == nil {
		t.Error("short order should fail")
	}
}

func TestSBMPartObservedMatchesTargetOnLFR(t *testing.T) {
	// End-to-end quality check mirroring the paper's protocol at small
	// scale: ground truth from LDG on an LFR graph, then SBM-Part must
	// reproduce the joint with small L1 error.
	l := sgen.NewLFR(5)
	n := int64(2000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	k := 8
	sizes, err := groupSizesForTest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := NewLDG(sizes)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ldg.Partition(g, RandomOrder(n, 13))
	if err != nil {
		t.Fatal(err)
	}
	target, err := stats.EmpiricalJoint(et, widen(truth), k)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := assigned(part.partition(g, RandomOrder(n, 99), make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := stats.EmpiricalJoint(et, widen(assign), k)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := stats.L1(target, observed)
	if err != nil {
		t.Fatal(err)
	}
	if l1 > 0.8 {
		t.Errorf("L1(target, observed) = %v, want < 0.8 (paper: close CDFs on LFR)", l1)
	}
	cdf, err := stats.NewCDFPair(target, observed)
	if err != nil {
		t.Fatal(err)
	}
	if ks := cdf.KS(); ks > 0.4 {
		t.Errorf("KS = %v, want < 0.4", ks)
	}
}

func groupSizesForTest(n int64, k int) ([]int64, error) {
	sizes := make([]int64, k)
	per := n / int64(k)
	var sum int64
	for i := range sizes {
		sizes[i] = per
		sum += per
	}
	sizes[0] += n - sum
	return sizes, nil
}

func TestSBMPartBeatsRandomAssignment(t *testing.T) {
	// SBM-Part must reproduce a homophilous target far better than a
	// random assignment does.
	l := sgen.NewLFR(21)
	n := int64(1000)
	et, err := l.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	sizes, _ := groupSizesForTest(n, k)
	ldg, _ := NewLDG(sizes)
	truth, err := ldg.Partition(g, RandomOrder(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, _ := stats.EmpiricalJoint(et, widen(truth), k)

	part, _ := NewSBMPart(target, sizes)
	assign, err := assigned(part.partition(g, RandomOrder(n, 2), make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	obs, _ := stats.EmpiricalJoint(et, widen(assign), k)
	l1SBM, _ := stats.L1(target, obs)

	// Random assignment honouring capacities.
	randAssign := make([]int64, n)
	idx := int64(0)
	for grp, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			randAssign[idx] = int64(grp)
			idx++
		}
	}
	order := RandomOrder(n, 77)
	shuffled := make([]int64, n)
	for i, v := range order {
		shuffled[v] = randAssign[i]
	}
	obsRand, _ := stats.EmpiricalJoint(et, shuffled, k)
	l1Rand, _ := stats.L1(target, obsRand)

	if l1SBM >= l1Rand {
		t.Errorf("SBM-Part L1 %v not better than random %v", l1SBM, l1Rand)
	}
}

func TestLDGBasics(t *testing.T) {
	_, g := twoCliques(t, 10)
	ldg, err := NewLDG([]int64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := ldg.Partition(g, RandomOrder(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	// LDG should keep cliques together.
	for c := int64(0); c < 2; c++ {
		first := assign[c*10]
		for v := c*10 + 1; v < (c+1)*10; v++ {
			if assign[v] != first {
				t.Fatalf("LDG split clique %d", c)
			}
		}
	}
}

func TestLDGValidation(t *testing.T) {
	if _, err := NewLDG(nil); err == nil {
		t.Error("no partitions should fail")
	}
	if _, err := NewLDG([]int64{0, 5}); err == nil {
		t.Error("zero capacity should fail")
	}
	_, g := twoCliques(t, 5)
	ldg, _ := NewLDG([]int64{3, 3})
	if _, err := ldg.Partition(g, RandomOrder(10, 1)); err == nil {
		t.Error("insufficient total capacity should fail")
	}
}

func TestLDGCapacitiesExact(t *testing.T) {
	_, g := twoCliques(t, 10)
	ldg, _ := NewLDG([]int64{7, 13})
	assign, err := ldg.Partition(g, RandomOrder(20, 9))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2)
	for _, a := range assign {
		counts[a]++
	}
	if counts[0] > 7 || counts[1] > 13 {
		t.Fatalf("capacity violated: %v", counts)
	}
}

func TestBuildMapping(t *testing.T) {
	assign := []uint32{0, 1, 0, 1}
	rowLabels := []int64{1, 0, 1, 0}
	f, err := BuildMapping(assign, rowLabels, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must map to a row with its assigned value; rows used
	// at most once.
	used := map[uint32]bool{}
	for v, row := range f {
		if rowLabels[row] != int64(assign[v]) {
			t.Errorf("node %d (group %d) mapped to row %d (label %d)", v, assign[v], row, rowLabels[row])
		}
		if used[row] {
			t.Errorf("row %d used twice", row)
		}
		used[row] = true
	}
}

func TestBuildMappingErrors(t *testing.T) {
	if _, err := BuildMapping([]uint32{0, 0}, []int64{0}, 1, 1); err == nil {
		t.Error("fewer rows than nodes should fail")
	}
	if _, err := BuildMapping([]uint32{0}, []int64{5}, 2, 1); err == nil {
		t.Error("row label out of range should fail")
	}
	if _, err := BuildMapping([]uint32{3}, []int64{0, 0}, 2, 1); err == nil {
		t.Error("assignment out of range should fail")
	}
	if _, err := BuildMapping([]uint32{unassigned}, []int64{0, 0}, 2, 1); err == nil {
		t.Error("unassigned node should fail")
	}
	// Group over capacity: two nodes assigned group 0 but one row.
	if _, err := BuildMapping([]uint32{0, 0}, []int64{0, 1}, 2, 1); err == nil {
		t.Error("group over capacity should fail")
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

// TestBuildMappingAllocations pins BuildMapping's memory shape: the
// rows bucketed into one buffer laid out by the per-value counts, and
// the mapping — two 4-byte ids per node; per-bucket appends would
// leave about as much again in doubling garbage.
func TestBuildMappingAllocations(t *testing.T) {
	const n, k = 200_000, 16
	rowLabels := make([]int64, n)
	assign := make([]uint32, n)
	for i := range rowLabels {
		rowLabels[i] = int64(i*7) % k
		assign[i] = uint32(i*11) % k
	}
	var err error
	b := allocated(func() { _, err = BuildMapping(assign, rowLabels, k, 3) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes for %d rows (%.2f bytes per row)", b, n, float64(b)/n)
	// The slack is each big buffer's rounding to whole pages plus the
	// per-value shuffle streams.
	if want := int64(2*4*n + 1<<15); b > want {
		t.Errorf("BuildMapping allocated %d bytes, want ≤ %d (2·4·n + 32 KiB)", b, want)
	}
}

// TestMatchPropertyCSRBytes pins a match without refinement to the
// streamed CSR: 4 bytes per kept entry, one per edge, plus 8 per offset
// and the 4-byte rank the build is oriented by, which is also the
// order's one permutation check. Beside it the run takes 8 bytes per
// node: the order and the mapping, 4 bytes each. The dead rank holds
// the assignment and the dead order BuildMapping's row buckets, which
// would cost 8 bytes more per node; the full CSR would cost 4 bytes
// more per edge.
func TestMatchPropertyCSRBytes(t *testing.T) {
	const n, k = 20_000, 8
	et, err := sgen.NewLFR(1).Run(n)
	f := newMonoFixture(t, et, err, n, equalSizes(n, k), 0.8)
	labels := f.rowLabels()
	b := int64(math.MaxInt64)
	for range 3 { // TotalAlloc is process-wide: take the quietest run
		b = min(b, allocated(func() {
			if _, err := MatchProperty(et, n, labels, f.target, DefaultOptions(5)); err != nil {
				t.Fatal(err)
			}
		}))
	}
	entries := et.Len() // no self-loops in LFR
	csr := 4*entries + 8*(n+1) + 4*n
	rest := int64(4*n + 4*n)
	t.Logf("%d bytes: %d entries, CSR bound %d, the rest %d", b, entries, csr, rest)
	// The slack is each big buffer's rounding to whole pages, the
	// per-value shuffle streams and the k×k matrices.
	if want := csr + rest + 128<<10; b > want {
		t.Errorf("MatchProperty allocated %d bytes, want ≤ %d (streamed CSR + per-node words + 128 KiB)", b, want)
	}
}

// TestMatchKeepsCallerOrder: a match lays BuildMapping's row buckets
// into the order it drew itself, never into a caller's Options.Order,
// which reads the same after the call, with or without refinement, on
// one domain or two. A caller who passes the order the match would draw
// gets the same assignment and mapping, so the reuse moves no byte.
func TestMatchKeepsCallerOrder(t *testing.T) {
	mono := lfrFixture(t, 2000, 4)
	labels := mono.rowLabels()
	bip := zipfFixture(t, 2000, 500, 4, 3)
	for _, passes := range []int{0, 2} {
		drawn := DefaultOptions(5)
		drawn.Passes = passes
		given := drawn
		given.Order = RandomOrder(mono.n, drawn.Seed)
		kept := slices.Clone(given.Order)
		a, err := MatchProperty(mono.et, mono.n, labels, mono.target, drawn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MatchProperty(mono.et, mono.n, labels, mono.target, given)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(given.Order, kept) {
			t.Errorf("passes %d: MatchProperty wrote the caller's order", passes)
		}
		if !slices.Equal(a.Assign, b.Assign) || !slices.Equal(a.Mapping, b.Mapping) {
			t.Errorf("passes %d: MatchProperty with its own order differs from the same order given", passes)
		}

		given.Order = RandomOrder(bip.nTail+bip.nHead, drawn.Seed)
		kept = slices.Clone(given.Order)
		ba, err := MatchBipartite(bip.et, bip.nTail, bip.nHead, bip.tailLabels, bip.headLabels, bip.target, drawn)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := MatchBipartite(bip.et, bip.nTail, bip.nHead, bip.tailLabels, bip.headLabels, bip.target, given)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(given.Order, kept) {
			t.Errorf("passes %d: MatchBipartite wrote the caller's order", passes)
		}
		if !slices.Equal(ba.TailMapping, bb.TailMapping) || !slices.Equal(ba.HeadMapping, bb.HeadMapping) ||
			!slices.Equal(ba.TailAssign, bb.TailAssign) || !slices.Equal(ba.HeadAssign, bb.HeadAssign) {
			t.Errorf("passes %d: MatchBipartite with its own order differs from the same order given", passes)
		}
	}
}

func TestMatchPropertyEndToEnd(t *testing.T) {
	et, _ := twoCliques(t, 25)
	n := int64(50)
	rowLabels := make([]int64, n)
	for i := int64(25); i < 50; i++ {
		rowLabels[i] = 1
	}
	res, err := MatchProperty(et, n, rowLabels, diagTarget(), DefaultOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != 50 {
		t.Fatalf("mapping len = %d", len(res.Mapping))
	}
	// Separable instance: observed must be near the target (greedy
	// streaming leaves a small residue when both cliques seed the same
	// group early on).
	l1, _ := stats.L1(diagTarget(), res.Observed)
	if l1 > 0.3 {
		t.Errorf("L1 = %v, want < 0.3 on separable instance", l1)
	}
	// Applying the mapping keeps the edge table valid.
	et.Remap(res.Mapping)
	if err := et.Validate(n, n); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMatchInjective(t *testing.T) {
	f, err := RandomMatch(100, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, r := range f {
		if r >= 100 || seen[r] {
			t.Fatalf("mapping not injective at row %d", r)
		}
		seen[r] = true
	}
	if _, err := RandomMatch(10, 5, 1); err == nil {
		t.Error("fewer rows than nodes should fail")
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	order := RandomOrder(1000, 5)
	seen := make([]bool, 1000)
	for _, v := range order {
		if v >= 1000 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestDegreeDescOrder(t *testing.T) {
	// Star: center (degree 4) must come first.
	et := table.NewEdgeTable("star", 4)
	for i := int64(1); i <= 4; i++ {
		et.Add(0, i)
	}
	g, err := graph.FromEdgeTable(et, 5)
	if err != nil {
		t.Fatal(err)
	}
	order := DegreeDescOrder(g)
	if order[0] != 0 {
		t.Errorf("first node = %d, want hub 0", order[0])
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(int64(order[i])) > g.Degree(int64(order[i-1])) {
			t.Fatal("order not degree-descending")
		}
	}
}

// TestDegreeDescOrderAllocations: the counting sort places nodes
// straight into the order it returns — a 4-byte id per node plus an
// 8-byte count per degree — and keeps ties in id order.
func TestDegreeDescOrderAllocations(t *testing.T) {
	const n = 100_000
	g := messyGraph(t, n, 4*n, 9)
	var order []uint32
	b := allocated(func() { order = DegreeDescOrder(g) })
	want := 4*n + 8*(g.MaxDegree()+2)
	t.Logf("%d bytes for %d nodes, max degree %d", b, n, g.MaxDegree())
	if b > want+1<<14 {
		t.Errorf("DegreeDescOrder allocated %d bytes, want ≤ %d + 16 KiB", b, want)
	}
	for i := 1; i < len(order); i++ {
		d, prev := g.Degree(int64(order[i])), g.Degree(int64(order[i-1]))
		if d > prev || d == prev && order[i] < order[i-1] {
			t.Fatalf("order[%d] = %d (degree %d) after %d (degree %d)", i, order[i], d, order[i-1], prev)
		}
	}
}

func TestFrobeniusDeltaMatchesNaive(t *testing.T) {
	// Cross-check the incremental Frobenius delta against a naive
	// recomputation on a small instance.
	et, g := twoCliques(t, 6)
	k := 2
	target := diagTarget()
	caps := []int64{6, 6}
	part, err := NewSBMPart(target, caps)
	if err != nil {
		t.Fatal(err)
	}
	order := RandomOrder(12, 9)
	assign, err := assigned(part.partition(g, order, make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	// Replay the stream naively: after all placements, cur must equal
	// the empirical pair counts.
	m := float64(et.Len())
	obs, err := stats.EmpiricalJoint(et, widen(assign), k)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute final Frobenius both ways.
	var naive float64
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			d := obs.At(a, b)*m - target.At(a, b)*m
			naive += d * d
		}
	}
	if math.IsNaN(naive) {
		t.Fatal("naive Frobenius is NaN")
	}
	// The incremental path reached a *valid* final state (capacity +
	// assignment checks above); Frobenius here just needs to be finite
	// and small relative to m² for the separable case.
	if naive > 0.2*m*m {
		t.Errorf("final Frobenius distance %v too large (m=%v)", naive, m)
	}
}

// TestPartitionScratchReuse: the hoisted per-instance deltas scratch
// must not leak state between partition calls — repeated runs over the
// same input give identical assignments.
func TestPartitionScratchReuse(t *testing.T) {
	_, g := twoCliques(t, 100)
	target, _ := stats.HomophilyJoint([]int64{100, 100}, 0.7)
	p, err := NewSBMPart(target, []int64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 9
	order := RandomOrder(200, 4)
	first, err := assigned(p.partition(g, order, make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := assigned(p.partition(g, order, make([]uint32, g.N()), 0))
		if err != nil {
			t.Fatal(err)
		}
		for v := range first {
			if first[v] != again[v] {
				t.Fatalf("run %d: node %d assigned %d, first run gave %d", run, v, again[v], first[v])
			}
		}
	}
}

// assigned unwraps a partition run to its assignment.
func assigned(r *sbmRun, err error) ([]uint32, error) {
	if err != nil {
		return nil, err
	}
	return r.assign, nil
}
