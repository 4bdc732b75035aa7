package match

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// recountJointMatrix is the reference the carried matrix is checked
// against: the k×k joint matrix of assign recomputed from nothing, each
// non-loop edge counted once (owned by its lower endpoint), mirrored
// off-diagonal. Until the matrix was carried from pass to pass, every
// refinement pass started with this scan.
func recountJointMatrix(g *graph.Graph, assign []uint32, k int) []float64 {
	kk := int64(k)
	cur := make([]float64, k*k)
	for v := int64(0); v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int64(u) <= v {
				continue
			}
			a, b := int64(assign[v]), int64(assign[u])
			cur[a*kk+b]++
			if a != b {
				cur[b*kk+a]++
			}
		}
	}
	return cur
}

// messyGraph is a random multigraph that exercises every edge case of
// the matrix bookkeeping: self-loops, parallel edges, hubs, and a tail
// of isolated nodes (the last tenth of the id range has no edges).
func messyGraph(t testing.TB, n, m int64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeTable(messyEdges(n, m, seed), n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// messyEdges is messyGraph's edge list.
func messyEdges(n, m int64, seed uint64) *table.EdgeTable {
	s := xrand.NewStream(seed).DeriveStream("messy")
	live := n - n/10
	tail := make([]uint32, 0, m+m/8)
	head := make([]uint32, 0, m+m/8)
	for e := int64(0); e < m; e++ {
		a, b := uint32(s.Intn(2*e, live)), uint32(s.Intn(2*e+1, live))
		if e%5 == 0 {
			a = uint32(s.Intn(2*e, 8)) // hubs
		}
		tail, head = append(tail, a), append(head, b)
		switch e % 16 {
		case 3: // parallel edge, same orientation
			tail, head = append(tail, a), append(head, b)
		case 7: // parallel edge, reversed
			tail, head = append(tail, b), append(head, a)
		case 11: // self-loop
			tail, head = append(tail, a), append(head, a)
		}
	}
	return &table.EdgeTable{Name: "messy", Tail: tail, Head: head}
}

// TestCarriedJointMatrixMatchesRecount is the differential oracle for
// carrying the joint matrix across passes: after the first pass and
// after every refinement pass, k ∈ {2, 16, 64}, the matrix the run
// holds must equal a from-scratch recount of the assignment it returns,
// bit for bit, on a graph with self-loops, parallel edges and isolated
// nodes. (Passes are deterministic, so the state after pass e of a
// longer run is the result of a run with extra = e.)
func TestCarriedJointMatrixMatchesRecount(t *testing.T) {
	const n, m = 3000, 24000
	g := messyGraph(t, n, m, 41)
	// Each mode is the first pass's stream order; refinement passes
	// always stream degree descending. "serial" is the random order the
	// one (serial) driver runs by default.
	modes := []struct {
		name  string
		order []uint32
	}{
		{"serial", RandomOrder(n, 3)},
		{"degree-order", DegreeDescOrder(g)},
	}
	for _, k := range []int{2, 16, 64} {
		sizes := equalSizes(n, k)
		target := homophilyTarget(t, sizes, 0.7)
		for _, mode := range modes {
			for extra := 0; extra <= 3; extra++ {
				t.Run(fmt.Sprintf("k=%d/%s/extra=%d", k, mode.name, extra), func(t *testing.T) {
					part, err := NewSBMPart(target, sizes)
					if err != nil {
						t.Fatal(err)
					}
					part.Seed = 7
					r, err := part.partition(g, mode.order, make([]uint32, g.N()), extra)
					if err != nil {
						t.Fatal(err)
					}
					assign, cur := r.assign, r.cur
					want := recountJointMatrix(g, assign, k)
					for i := range want {
						if math.Float64bits(cur[i]) != math.Float64bits(want[i]) {
							t.Fatalf("cell (%d,%d): carried %v, recount %v", i/k, i%k, cur[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestObservedMatchesRecount: a match reads its observed joint from the
// carried matrix and a self-loop pass instead of recounting the edge
// table. On random edge lists with self-loops and parallel edges, at
// Passes 0 and 2, and on random bipartite edge lists, Result.Observed
// and BipartiteResult.Observed must equal the recount —
// stats.EmpiricalJoint and EmpiricalBipartite over the assignment —
// bit for bit.
func TestObservedMatchesRecount(t *testing.T) {
	same := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Logf("cell %d: read %v, recount %v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	mono := func(seed uint64, nn, mm uint16, kk uint8) bool {
		k := 1 + int(kk%8)
		n := 8 + int64(nn%400) // messyEdges' hubs are nodes 0–7
		et := messyEdges(n, int64(mm%3000), seed)
		f := newMonoFixture(t, et, nil, n, equalSizes(n, k), 0.7)
		rows := f.rowLabels()
		for _, passes := range []int{0, 2} {
			opt := DefaultOptions(seed)
			opt.Passes = passes
			res, err := MatchProperty(et, n, rows, f.target, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.EmpiricalJoint(et, widen(res.Assign), k)
			if err != nil {
				t.Fatal(err)
			}
			if !same(res.Observed.P, want.P) {
				t.Logf("n=%d m=%d k=%d passes=%d", n, et.Len(), k, passes)
				return false
			}
		}
		return true
	}
	// messyBipartite draws from one seed, so the sizes vary the edges;
	// tails and heads share small ids, so many edges join equal ids.
	bip := func(seed uint64, nt, nh, mm uint16, kk uint8) bool {
		kt, kh := 1+int(kk%5), 1+int(kk/5%5)
		f := messyBipartite(t, 5+int64(nt%300), 5+int64(nh%300), 1+int64(mm%3000), kt, kh)
		for _, passes := range []int{0, 2} {
			opt := DefaultOptions(seed)
			opt.Passes = passes
			res, err := MatchBipartite(f.et, f.nTail, f.nHead, f.tailLabels, f.headLabels, f.target, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EmpiricalBipartite(f.et, widen(res.TailAssign), widen(res.HeadAssign), kt, kh)
			if err != nil {
				t.Fatal(err)
			}
			if !same(res.Observed.P, want.P) {
				t.Logf("nTail=%d nHead=%d m=%d kt=%d kh=%d passes=%d", f.nTail, f.nHead, f.et.Len(), kt, kh, passes)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(mono, cfg); err != nil {
		t.Error("monopartite:", err)
	}
	if err := quick.Check(bip, cfg); err != nil {
		t.Error("bipartite:", err)
	}
}
