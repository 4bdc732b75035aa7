package datasynth

// One benchmark per table/figure of the paper, plus the SBM-Part
// ablations exp.Panel and match.SBMPart expose. Fidelity metrics (L1, KS) are attached to the
// benchmark output via ReportMetric, so `go test -bench=.` regenerates
// both the performance and the quality side of every experiment at
// laptop scale. cmd/sbmpart-eval -full runs the paper's full sizes.

import (
	"fmt"
	"testing"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/exp"
	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// benchPanel runs one evaluation panel per iteration and reports its
// fidelity metrics.
func benchPanel(b *testing.B, p exp.Panel) {
	b.Helper()
	var last *exp.Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunPanel(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.L1, "L1")
	b.ReportMetric(last.KS, "KS")
	b.ReportMetric(float64(last.Edges), "edges")
}

// --- Figure 3: fixed k=16, varying graph size ---

func BenchmarkFigure3_LFR10k_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 10000, K: 16, Seed: 31})
}

func BenchmarkFigure3_LFR30k_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 30000, K: 16, Seed: 32})
}

func BenchmarkFigure3_LFR100k_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 100000, K: 16, Seed: 33})
}

func BenchmarkFigure3_RMAT12_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 12, K: 16, Seed: 34})
}

func BenchmarkFigure3_RMAT14_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 14, K: 16, Seed: 35})
}

func BenchmarkFigure3_RMAT16_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 16, K: 16, Seed: 36})
}

// --- Scale ceiling: the paper's full-size panels, run as benchmarks so
// regressions at depth (sharded RMAT generation, radix dedup, LFR
// community wiring) show up in wall-clock rather than only at laptop
// scale. RMAT scale 20 is 2^20 nodes; LFR 1M matches Figure 3's
// largest LFR panel.

func BenchmarkFigure3_RMAT20_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 20, K: 16, Seed: 37})
}

func BenchmarkFigure3_LFR1M_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 1000000, K: 16, Seed: 38})
}

// --- Figure 4: fixed size, k in {4, 16, 64} ---

func BenchmarkFigure4_LFR100k_K4(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 100000, K: 4, Seed: 41})
}

func BenchmarkFigure4_LFR100k_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 100000, K: 16, Seed: 42})
}

func BenchmarkFigure4_LFR100k_K64(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.LFR, Size: 100000, K: 64, Seed: 43})
}

func BenchmarkFigure4_RMAT16_K4(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 16, K: 4, Seed: 44})
}

func BenchmarkFigure4_RMAT16_K16(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 16, K: 16, Seed: 45})
}

func BenchmarkFigure4_RMAT16_K64(b *testing.B) {
	benchPanel(b, exp.Panel{Generator: exp.RMAT, Size: 16, K: 64, Seed: 46})
}

// --- Table 1: capability matrix, measured ---

func BenchmarkTable1Capabilities(b *testing.B) {
	var held, total int
	for i := 0; i < b.N; i++ {
		caps, err := exp.MeasureCapabilities(5000, 99)
		if err != nil {
			b.Fatal(err)
		}
		held, total = 0, len(caps)
		for _, c := range caps {
			if c.Holds {
				held++
			}
		}
	}
	b.ReportMetric(float64(held), "capabilities_held")
	b.ReportMetric(float64(total), "capabilities_total")
}

// --- Timing claim (Sec 4.2): SBM-Part wall time, k=64, RMAT ---

func BenchmarkTimingSBMPartRMAT14_K64(b *testing.B) {
	benchTiming(b, 14)
}

func BenchmarkTimingSBMPartRMAT16_K64(b *testing.B) {
	benchTiming(b, 16)
}

func benchTiming(b *testing.B, scale int64) {
	b.Helper()
	var eps float64
	for i := 0; i < b.N; i++ {
		pts, err := exp.RunTiming([]int64{scale}, 64, 7)
		if err != nil {
			b.Fatal(err)
		}
		eps = float64(pts[0].Edges) / pts[0].Seconds
	}
	b.ReportMetric(eps, "edges/s")
}

// --- Ablations: the SBMPart knobs (Balance, stream order, FinalTarget,
// refinement passes) ---

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
	ldg, err := match.NewLDG(sizes)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := ldg.Partition(g, match.RandomOrder(n, 1))
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
				part, err := match.NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Balance = balance
				part.Seed = 3
				assign, err := part.Partition(g, match.RandomOrder(g.N(), 2))
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
				ord = match.RandomOrder(g.N(), 2)
			case "bfs":
				ord = match.BFSOrder(g, 2)
			case "degree":
				ord = match.DegreeDescOrder(g)
			}
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := match.NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				assign, err := part.Partition(g, ord)
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
// match.SBMPart.FinalTarget).
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
				part, err := match.NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				part.FinalTarget = final
				assign, err := part.Partition(g, match.RandomOrder(g.N(), 2))
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}

// --- Component throughput benchmarks ---

func BenchmarkStructureRMAT(b *testing.B) {
	n := int64(1 << 14)
	var edges int64
	for i := 0; i < b.N; i++ {
		et, err := sgen.NewRMAT(uint64(i)).Run(n)
		if err != nil {
			b.Fatal(err)
		}
		edges = et.Len()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds()*float64(b.N), "edges/s")
}

func BenchmarkStructureLFR(b *testing.B) {
	n := int64(20000)
	var edges int64
	for i := 0; i < b.N; i++ {
		et, err := sgen.NewLFR(uint64(i)).Run(n)
		if err != nil {
			b.Fatal(err)
		}
		edges = et.Len()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds()*float64(b.N), "edges/s")
}

func BenchmarkEngineSocialNetwork(b *testing.B) {
	const schemaText = `
graph social {
  seed = 42
  node Person {
    count = 5000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
  node Message { property topic : string = categorical(dict="topics") }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=15, maxDegree=40)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date() given (tail.creationDate, head.creationDate)
  }
  edge creates : Person 1-* Message { structure = powerlaw-out(min=1, max=10, gamma=2.0) }
}
`
	s, err := dsl.Parse(schemaText)
	if err != nil {
		b.Fatal(err)
	}
	var nodes, edges int64
	for i := 0; i < b.N; i++ {
		d, err := core.New(s).Generate()
		if err != nil {
			b.Fatal(err)
		}
		nodes, edges = 0, 0
		for _, c := range d.NodeCounts {
			nodes += c
		}
		for _, et := range d.Edges {
			edges += et.Len()
		}
	}
	b.ReportMetric(float64(nodes), "nodes")
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkInPlaceGeneration measures raw property-value throughput —
// the Myriad-style in-place generation path.
func BenchmarkInPlaceGeneration(b *testing.B) {
	s, err := dsl.Parse(`
graph g {
  seed = 9
  node N {
    count = 200000
    property x : int = uniform-int(lo=0, hi=1000000)
    property c : string = categorical(dict="countries")
  }
  edge e : N *-* N { count = 1000 structure = erdos-renyi(edgesPerNode=1) }
}
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.New(s).Generate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(400000*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// BenchmarkAblationRestream measures the re-streaming refinement
// extension (paper future work "optimization strategies"): extra
// hub-first passes over the stream with fresh quotas.
func BenchmarkAblationRestream(b *testing.B) {
	for _, passes := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			g, target, sizes := setupAblation(b, 10000, 16)
			order := match.RandomOrder(g.N(), 2)
			var l1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := match.NewSBMPart(target, sizes)
				if err != nil {
					b.Fatal(err)
				}
				part.Seed = 3
				assign, err := part.PartitionMultiPass(g, order, passes)
				if err != nil {
					b.Fatal(err)
				}
				l1 = ablationL1(b, assign)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}
