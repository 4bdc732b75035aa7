package match

import (
	"fmt"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// Ablations of the SBMPart knobs — Balance, stream order, FinalTarget,
// refinement passes — on one LFR instance with LDG ground truth; each
// reports the L1 distance it reaches.

// setupAblation builds one shared LFR instance with LDG ground truth.
func setupAblation(b *testing.B, n int64, k int) (*graph.Graph, *stats.Joint, []int64) {
	b.Helper()
	lfr := sgen.NewLFR(5)
	et, err := lfr.Run(n)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		b.Fatal(err)
	}
	sizes, err := xrand.GroupSizes(n, k, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	ldg, err := NewLDG(sizes)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := ldg.Partition(g, RandomOrder(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]int64, n)
	for v, t := range truth {
		labels[v] = int64(t)
	}
	target, err := stats.EmpiricalJoint(et, labels, k)
	if err != nil {
		b.Fatal(err)
	}
	// L1 needs the edge table; keep it in package state so the ablation
	// loops can recompute observed joints from assignments.
	ablationShared = ablationState{g: g, target: target, sizes: sizes, etTail: et.Tail, etHead: et.Head, n: n, k: k}
	return g, target, sizes
}

type ablationState struct {
	g              *graph.Graph
	target         *stats.Joint
	sizes          []int64
	etTail, etHead []uint32
	n              int64
	k              int
}

var ablationShared ablationState

func ablationL1(b *testing.B, assign []uint32) float64 {
	b.Helper()
	s := &ablationShared
	obs := stats.NewJoint(s.k)
	w := 1 / float64(len(s.etTail))
	for i := range s.etTail {
		obs.Add(int(assign[s.etTail[i]]), int(assign[s.etHead[i]]), w)
	}
	l1, err := stats.L1(s.target, obs)
	if err != nil {
		b.Fatal(err)
	}
	return l1
}

// BenchmarkAblationBalance compares SBM-Part with and without the LDG
// capacity-balancing factor.
func BenchmarkAblationBalance(b *testing.B) {
	for _, balance := range []bool{true, false} {
		b.Run(fmt.Sprintf("balance=%v", balance), func(b *testing.B) {
			g, target, sizes := setupAblation(b, 10000, 16)
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Balance = balance
				part.Seed = 3
				assign, err := assigned(part.partition(g, RandomOrder(g.N(), 2), 0))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}

// BenchmarkAblationOrder compares stream orders (random vs BFS vs
// degree-descending).
func BenchmarkAblationOrder(b *testing.B) {
	for _, order := range []string{"random", "bfs", "degree"} {
		b.Run(order, func(b *testing.B) {
			g, target, sizes := setupAblation(b, 10000, 16)
			var ord []uint32
			switch order {
			case "random":
				ord = RandomOrder(g.N(), 2)
			case "bfs":
				ord = BFSOrder(g, 2)
			case "degree":
				ord = DegreeDescOrder(g)
			}
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				assign, err := assigned(part.partition(g, ord, 0))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}

// BenchmarkAblationTarget compares the default proportional target
// scaling against the literal final-target reading of the paper (see
// SBMPart.FinalTarget).
func BenchmarkAblationTarget(b *testing.B) {
	for _, final := range []bool{false, true} {
		name := "proportional"
		if final {
			name = "final"
		}
		b.Run(name, func(b *testing.B) {
			g, target, sizes := setupAblation(b, 10000, 16)
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				part.FinalTarget = final
				assign, err := assigned(part.partition(g, RandomOrder(g.N(), 2), 0))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}

// BenchmarkAblationRestream measures the re-streaming refinement
// extension (paper future work "optimization strategies"): extra
// hub-first passes over the stream with fresh quotas.
func BenchmarkAblationRestream(b *testing.B) {
	for _, passes := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			g, target, sizes := setupAblation(b, 10000, 16)
			order := RandomOrder(g.N(), 2)
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				assign, err := assigned(part.partition(g, order, passes))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}
