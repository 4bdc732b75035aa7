package match

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// separableBipartite builds a bipartite graph where tails [0,10) attach
// only to heads [0,20) and tails [10,20) only to heads [20,40): a
// perfectly block-diagonal instance.
func separableBipartite(t *testing.T) (*table.EdgeTable, int64, int64) {
	t.Helper()
	et := table.NewEdgeTable("bip", 40)
	for tl := int64(0); tl < 10; tl++ {
		et.Add(tl, tl*2)
		et.Add(tl, tl*2+1)
	}
	for tl := int64(10); tl < 20; tl++ {
		et.Add(tl, 20+(tl-10)*2)
		et.Add(tl, 20+(tl-10)*2+1)
	}
	return et, 20, 40
}

// twoDomainJoint returns the two-domain joint with len(p) tail values
// and len(p[0]) head values whose P(X=a, Y=b) is p[a][b].
func twoDomainJoint(p [][]float64) *stats.Joint {
	kt := len(p)
	j := stats.NewJoint(kt + len(p[0]))
	j.Tails = kt
	for a, row := range p {
		for b, v := range row {
			j.Set(a, kt+b, v)
		}
	}
	return j
}

func diagBipTarget() *stats.Joint {
	return twoDomainJoint([][]float64{{0.5, 0}, {0, 0.5}})
}

func TestEmpiricalBipartite(t *testing.T) {
	et := table.NewEdgeTable("e", 2)
	et.Add(0, 0)
	et.Add(1, 1)
	j, err := EmpiricalBipartite(et, []int64{0, 1}, []int64{1, 0}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if j.Tails != 2 || math.Abs(j.At(0, 2+1)-0.5) > 1e-12 || math.Abs(j.At(1, 2+0)-0.5) > 1e-12 {
		t.Errorf("empirical bipartite wrong: tails %d, %v", j.Tails, j.P)
	}
	if _, err := EmpiricalBipartite(et, []int64{0}, []int64{0, 0}, 2, 2); err == nil {
		t.Error("short labels should fail")
	}
}

func TestMatchBipartiteSeparable(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	headRows := make([]int64, nH)
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	res, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), DefaultOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	// The instance is separable, but single-pass streaming places
	// degree-1 heads that arrive before their tail blind, so exact
	// recovery is not guaranteed (the paper: greedy "does not guarantee
	// an optimal solution"). Require the diagonal mass to be far above
	// the 0.5 a random assignment would give.
	diag := res.Observed.At(0, 2+0) + res.Observed.At(1, 2+1)
	if diag < 0.75 {
		t.Errorf("observed diagonal mass = %v, want > 0.75 (random gives 0.5)", diag)
	}
	// Mappings are valid and injective per side.
	checkInjective := func(f []uint32, rows []int64, assign []uint32) {
		used := map[uint32]bool{}
		for v, r := range f {
			if used[r] {
				t.Fatalf("row %d reused", r)
			}
			used[r] = true
			if rows[r] != int64(assign[v]) {
				t.Fatalf("node %d group %d got row %d label %d", v, assign[v], r, rows[r])
			}
		}
	}
	checkInjective(res.TailMapping, tailRows, res.TailAssign)
	checkInjective(res.HeadMapping, headRows, res.HeadAssign)
}

func TestMatchBipartiteErrors(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	headRows := make([]int64, nH)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	// Bad target mass.
	bad := twoDomainJoint([][]float64{{0, 0}, {0, 0}})
	if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, bad, DefaultOptions(1)); err == nil {
		t.Error("zero-mass target should fail")
	}
	// A one-domain joint over as many values has no tail/head split.
	one := stats.NewJoint(4)
	one.Set(0, 2, 0.5)
	one.Set(1, 3, 0.5)
	if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, one, DefaultOptions(1)); err == nil || !strings.Contains(err.Error(), "two-domain") {
		t.Errorf("one-domain target: err = %v, want a two-domain refusal", err)
	}
	// A split with one tail value cannot hold the tail rows' value 1.
	split := twoDomainJoint([][]float64{{0.2, 0.4, 0.4}})
	if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, split, DefaultOptions(1)); err == nil || !strings.Contains(err.Error(), "tail labels") {
		t.Errorf("1×3 target for 2×2 labels: err = %v, want a tail-label refusal", err)
	}
	// Too few tail rows.
	if _, err := MatchBipartite(et, nT, nH, tailRows[:5], headRows, diagBipTarget(), DefaultOptions(1)); err == nil {
		t.Error("short tail rows should fail")
	}
	// Edge endpoint out of bounds.
	badET := table.NewEdgeTable("e", 1)
	badET.Add(99, 0)
	if _, err := MatchBipartite(badET, 10, 10, make([]int64, 10), make([]int64, 10), mustUniformBip(), DefaultOptions(1)); err == nil {
		t.Error("invalid edge table should fail")
	}
}

func mustUniformBip() *stats.Joint {
	return twoDomainJoint([][]float64{{1}})
}

func TestMatchBipartiteDeterministic(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	headRows := make([]int64, nH)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	run := func() *BipartiteResult {
		res, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), DefaultOptions(55))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.TailMapping {
		if a.TailMapping[i] != b.TailMapping[i] {
			t.Fatal("tail mapping not deterministic")
		}
	}
	for i := range a.HeadMapping {
		if a.HeadMapping[i] != b.HeadMapping[i] {
			t.Fatal("head mapping not deterministic")
		}
	}
}

// TestMatchBipartiteBadOrder: a stream order over the combined id space
// that is not a permutation is an error naming the offending id, for
// both domains — not an index out of range or a node placed twice.
func TestMatchBipartiteBadOrder(t *testing.T) {
	et, nT, nH := separableBipartite(t)
	tailRows := make([]int64, nT)
	headRows := make([]int64, nH)
	for i := int64(10); i < nT; i++ {
		tailRows[i] = 1
	}
	for i := int64(20); i < nH; i++ {
		headRows[i] = 1
	}
	for _, tc := range []struct {
		name string
		at   int64
		v    uint32
	}{
		{"duplicate tail", 1, 0}, {"duplicate head", nT + 1, uint32(nT)},
		{"id past both domains", 3, uint32(nT + nH)}, {"largest id", nT + nH - 1, ^uint32(0)},
	} {
		opt := DefaultOptions(1)
		opt.Order = make([]uint32, nT+nH)
		for i := range opt.Order {
			opt.Order[i] = uint32(i)
		}
		opt.Order[tc.at] = tc.v
		want := fmt.Sprintf("match: order is not a permutation (node %d)", tc.v)
		if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), opt); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
	opt := DefaultOptions(1)
	opt.Order = make([]uint32, nT)
	if _, err := MatchBipartite(et, nT, nH, tailRows, headRows, diagBipTarget(), opt); err == nil {
		t.Error("short order should fail")
	}
}

// TestMatchBipartiteBytes holds a bipartite match to the accounting of
// TestMatchPropertyCSRBytes: the streamed CSR over the nTail+nHead ids
// (4 bytes per edge, 8 per offset, and the 4-byte rank that is also the
// order's one permutation check), and beside it 16 bytes per node: the
// order, the assignment, and each side's row buckets and mapping, with
// as many rows as nodes, 4 bytes each.
func TestMatchBipartiteBytes(t *testing.T) {
	f := zipfFixture(t, 20_000, 10_000, 12, 6)
	n := f.nTail + f.nHead
	b := int64(math.MaxInt64)
	for range 3 { // TotalAlloc is process-wide: take the quietest run
		b = min(b, allocated(func() { f.match(t) }))
	}
	csr := 4*f.et.Len() + 8*(n+1) + 4*n
	rest := 16 * n
	t.Logf("%d bytes: %d edges, CSR bound %d, the rest %d", b, f.et.Len(), csr, rest)
	// The slack is each big buffer's rounding to whole pages, the
	// per-value shuffle streams and the k×k matrices.
	if want := csr + rest + 128<<10; b > want {
		t.Errorf("MatchBipartite allocated %d bytes, want ≤ %d (streamed CSR + per-node words + 128 KiB)", b, want)
	}
}

// TestMatchBipartiteRefines: refinement passes work on a two-domain
// target. A zipf-attachment recommender — 20,000 users × 2,000
// products, values weighted 4|3|2|3 on both sides, the aligned
// homophily target at h = 0.75 — reads an aligned (diagonal) mass of
// 0.461–0.480 and an L1 of 0.539–0.578 from the first pass alone on
// seeds 1–3; one refinement pass lifts them past 0.58 and under 0.37,
// and the carried joint still equals the recount bit for bit.
func TestMatchBipartiteRefines(t *testing.T) {
	const nT, nH = 20000, 2000
	weights := []float64{4, 3, 2, 3}
	labels := func(n int64) []int64 {
		// Row r takes the first value whose cumulative weight share
		// exceeds r/n, so the counts cover n exactly.
		cum := []int64{4, 7, 9, 12}
		rows := make([]int64, n)
		for r := range rows {
			for int64(r)*12 >= n*cum[rows[r]] {
				rows[r]++
			}
		}
		return rows
	}
	target, err := stats.AlignedHomophilyJoint(weights, weights, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		et, err := sgen.NewZipfAttachment(1, 30, 1.8, 1.1, seed).RunBipartite(nT, nH)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(11)
		opt.Passes = 1
		res, err := MatchBipartite(et, nT, nH, labels(nT), labels(nH), target, opt)
		if err != nil {
			t.Fatal(err)
		}
		var diag float64
		for a := range weights {
			diag += res.Observed.At(a, len(weights)+a)
		}
		l1, err := stats.L1(target, res.Observed)
		if err != nil {
			t.Fatal(err)
		}
		if diag < 0.58 || l1 > 0.37 || len(res.PassTimes) != 2 {
			t.Errorf("seed %d: diag %.3f L1 %.3f over %d passes, want diag ≥ 0.58 and L1 ≤ 0.37 over 2", seed, diag, l1, len(res.PassTimes))
		}
		want, err := EmpiricalBipartite(et, widen(res.TailAssign), widen(res.HeadAssign), len(weights), len(weights))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range want.P {
			if math.Float64bits(res.Observed.P[i]) != math.Float64bits(p) {
				t.Fatalf("seed %d: observed cell %d reads %v, recount %v", seed, i, res.Observed.P[i], p)
			}
		}
		t.Logf("seed %d: %d edges, diag %.3f L1 %.3f", seed, et.Len(), diag, l1)
	}
}
