package match

import (
	"fmt"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// The refinement-pass ablation on one LFR instance with LDG ground
// truth: each pass count reports the L1 distance it reaches.

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
				assign, err := assigned(part.partition(g, order, make([]uint32, g.N()), passes))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}
