// Package exp implements the paper's evaluation protocol (Section 4.2,
// "Preliminary evaluation of graph matching") end to end, so Figures 3
// and 4, the Table 1 capability matrix and the timing claim can be
// regenerated:
//
//  1. Generate a graph g with LFR or RMAT.
//  2. Partition g into k ground-truth groups with LDG; group i is sized
//     n·max(geo(0.4,i),1/k)/Σ_j max(geo(0.4,j),1/k).
//  3. Label partition i's nodes with value i and compute the empirical
//     joint P(X,Y).
//  4. Build a property table with the same value frequencies and match
//     it to g with match.MatchProperty — the matcher every datasynth job
//     runs — streaming the nodes in random order.
//  5. Compare the expected and observed CDFs over value pairs sorted by
//     decreasing expected probability.
//
// Panels are independent — each derives every RNG stream from its own
// seed — so the harness fans them out through par.ForEachCtx, the one
// fan-out primitive: RunPanels runs a panel list on up to GOMAXPROCS
// goroutines and streams results back in submission order,
// byte-identical to the serial loop at any GOMAXPROCS
// (TestRunPanelsMatchesSerial pins this). RunMuSweep fans its sweep
// points out through par.ForEach the same way. The one deliberate exception is RunTiming,
// which runs panels one at a time so its wall-clock numbers remain the
// paper's single-thread measurement (the matcher it times is serial by
// construction).
package exp

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// GeneratorKind selects the structure generator of a panel.
type GeneratorKind string

// The two generators of the paper's evaluation.
const (
	LFR  GeneratorKind = "LFR"
	RMAT GeneratorKind = "RMAT"
)

// Panel describes one subplot of Figure 3 or 4.
type Panel struct {
	Generator GeneratorKind
	// Size is the node count for LFR panels and the scale (log2 nodes)
	// for RMAT panels, matching the paper's labels LFR(10k,16) and
	// RMAT(22,16).
	Size int64
	// K is the number of distinct property values.
	K int
	// Seed drives all pseudo-randomness of the panel.
	Seed uint64
	// Order optionally overrides the SBM-Part stream order ablation
	// ("random" default, "bfs", "degree").
	Order string
	// Balance toggles SBM-Part's capacity-balancing term (default on).
	NoBalance bool
	// Passes adds re-streaming refinement passes after the first
	// streaming pass (0 = the paper's single-pass algorithm).
	Passes int
}

// Label renders the paper's panel naming, e.g. "LFR(10k,16)".
func (p Panel) Label() string {
	if p.Generator == RMAT {
		return fmt.Sprintf("RMAT(%d,%d)", p.Size, p.K)
	}
	return fmt.Sprintf("LFR(%s,%d)", compact(p.Size), p.K)
}

func compact(n int64) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Result holds one panel's measurements.
type Result struct {
	Panel    Panel
	Nodes    int64
	Edges    int64
	CDF      *stats.CDFPair
	L1       float64
	KS       float64
	JS       float64
	GenTime  time.Duration // graph generation
	LDGTime  time.Duration // ground-truth partitioning
	SBMTime  time.Duration // SBM-Part matching (the paper's timing claim)
	Expected *stats.Joint
	Observed *stats.Joint
}

// RunPanel executes the full protocol for one panel.
func RunPanel(p Panel) (*Result, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("exp: panel needs K >= 1, got %d", p.K)
	}
	// 1. Structure.
	t0 := time.Now()
	var et *table.EdgeTable
	var n int64
	var err error
	switch p.Generator {
	case LFR:
		g := sgen.NewLFR(p.Seed)
		n = p.Size
		et, err = g.Run(n)
	case RMAT:
		g := sgen.NewRMAT(p.Seed)
		n = int64(1) << uint(p.Size)
		et, err = g.Run(n)
	default:
		return nil, fmt.Errorf("exp: unknown generator %q", p.Generator)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: generating %s: %w", p.Label(), err)
	}
	genTime := time.Since(t0)
	r, err := protocol(p, et, n)
	if err != nil {
		return nil, err
	}
	r.GenTime = genTime
	return r, nil
}

// protocol runs steps 2–5 on a generated structure et over n nodes:
// the LDG ground truth (seed^1), the stream order (seed^2) and the
// match (seed^3) all derive from p.Seed.
func protocol(p Panel, et *table.EdgeTable, n int64) (*Result, error) {
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		return nil, err
	}

	// 2. Ground truth via LDG with geometric group sizes.
	sizes, err := xrand.GroupSizes(n, p.K, 0.4)
	if err != nil {
		return nil, err
	}
	ldg, err := match.NewLDG(sizes)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	truth, err := ldg.Partition(g, match.RandomOrder(n, p.Seed^0x1))
	if err != nil {
		return nil, fmt.Errorf("exp: LDG ground truth: %w", err)
	}
	ldgTime := time.Since(t1)

	// 3. Expected joint, over the truth as property labels.
	labels := make([]int64, n)
	for v, t := range truth {
		labels[v] = int64(t)
	}
	expected, err := stats.EmpiricalJoint(et, labels, p.K)
	if err != nil {
		return nil, err
	}

	// 4. Property rows with the ground-truth frequencies, matched in
	// random order (or an ablation order, which needs the full CSR).
	var order []uint32
	switch p.Order {
	case "", "random":
		order = match.RandomOrder(n, p.Seed^0x2)
	case "bfs":
		order = match.BFSOrder(g, p.Seed^0x2)
	case "degree":
		order = match.DegreeDescOrder(g)
	default:
		return nil, fmt.Errorf("exp: unknown stream order %q", p.Order)
	}
	rowLabels, err := blockLabels(n, p.K)
	if err != nil {
		return nil, err
	}
	m, err := match.MatchProperty(et, n, rowLabels, expected, match.Options{
		Seed: p.Seed ^ 0x3, Order: order, Balance: !p.NoBalance, Passes: p.Passes,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: SBM-Part: %w", err)
	}

	// 5. CDF comparison.
	cdf, err := stats.NewCDFPair(expected, m.Observed)
	if err != nil {
		return nil, err
	}
	l1, err := stats.L1(expected, m.Observed)
	if err != nil {
		return nil, err
	}
	js, err := stats.JensenShannon(expected, m.Observed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Panel: p, Nodes: n, Edges: et.Len(),
		CDF: cdf, L1: l1, KS: cdf.KS(), JS: js,
		LDGTime: ldgTime, SBMTime: m.PartitionTime,
		Expected: expected, Observed: m.Observed,
	}, nil
}

// Figure3Panels returns the paper's Figure 3 configuration: fixed
// k = 16, varying size. When full is false, sizes are scaled down to
// laptop scale (shape is size-insensitive, which is exactly the
// figure's finding).
func Figure3Panels(full bool) []Panel {
	if full {
		return []Panel{
			{Generator: LFR, Size: 10000, K: 16, Seed: 31},
			{Generator: LFR, Size: 100000, K: 16, Seed: 32},
			{Generator: LFR, Size: 1000000, K: 16, Seed: 33},
			{Generator: RMAT, Size: 18, K: 16, Seed: 34},
			{Generator: RMAT, Size: 20, K: 16, Seed: 35},
			{Generator: RMAT, Size: 22, K: 16, Seed: 36},
		}
	}
	return []Panel{
		{Generator: LFR, Size: 10000, K: 16, Seed: 31},
		{Generator: LFR, Size: 30000, K: 16, Seed: 32},
		{Generator: LFR, Size: 100000, K: 16, Seed: 33},
		{Generator: RMAT, Size: 12, K: 16, Seed: 34},
		{Generator: RMAT, Size: 14, K: 16, Seed: 35},
		{Generator: RMAT, Size: 16, K: 16, Seed: 36},
	}
}

// Figure4Panels returns the paper's Figure 4 configuration: fixed size,
// k ∈ {4, 16, 64}.
func Figure4Panels(full bool) []Panel {
	lfrSize := int64(100000)
	rmatScale := int64(16)
	if full {
		lfrSize = 1000000
		rmatScale = 22
	}
	return []Panel{
		{Generator: LFR, Size: lfrSize, K: 4, Seed: 41},
		{Generator: LFR, Size: lfrSize, K: 16, Seed: 42},
		{Generator: LFR, Size: lfrSize, K: 64, Seed: 43},
		{Generator: RMAT, Size: rmatScale, K: 4, Seed: 44},
		{Generator: RMAT, Size: rmatScale, K: 16, Seed: 45},
		{Generator: RMAT, Size: rmatScale, K: 64, Seed: 46},
	}
}
