package match

import (
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// restreamSetup builds an LFR instance with LDG ground truth for
// refinement tests.
func restreamSetup(t *testing.T, n int64, k int) (*graph.Graph, *stats.Joint, []int64, func([]uint32) float64) {
	t.Helper()
	lfr := sgen.NewLFR(5)
	et, err := lfr.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := xrand.GroupSizes(n, k, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := NewLDG(sizes)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ldg.Partition(g, RandomOrder(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, err := stats.EmpiricalJoint(et, widen(truth), k)
	if err != nil {
		t.Fatal(err)
	}
	l1Of := func(assign []uint32) float64 {
		obs, err := stats.EmpiricalJoint(et, widen(assign), k)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := stats.L1(target, obs)
		if err != nil {
			t.Fatal(err)
		}
		return l1
	}
	return g, target, sizes, l1Of
}

func TestMultiPassImprovesFidelity(t *testing.T) {
	g, target, sizes, l1Of := restreamSetup(t, 5000, 16)
	order := RandomOrder(g.N(), 2)

	single, err := assigned(newPart(t, target, sizes).partition(g, order, make([]uint32, g.N()), 0))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := assigned(newPart(t, target, sizes).partition(g, order, make([]uint32, g.N()), 2))
	if err != nil {
		t.Fatal(err)
	}
	s1, sm := l1Of(single), l1Of(multi)
	if sm >= s1 {
		t.Errorf("refinement L1 %v not better than single-pass %v", sm, s1)
	}
}

func newPart(t *testing.T, target *stats.Joint, sizes []int64) *SBMPart {
	t.Helper()
	p, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 3
	return p
}

func TestMultiPassRespectsCapacities(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 3000, 8)
	assign, err := assigned(newPart(t, target, sizes).partition(g, RandomOrder(g.N(), 7), make([]uint32, g.N()), 3))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(sizes))
	for _, a := range assign {
		if int(a) >= len(sizes) {
			t.Fatalf("invalid assignment %d", a)
		}
		counts[a]++
	}
	for i := range sizes {
		if counts[i] > sizes[i] {
			t.Fatalf("group %d over capacity: %d > %d", i, counts[i], sizes[i])
		}
	}
}

// TestMultiPassValidation: a negative pass count is refused, not run
// as a single pass.
func TestMultiPassValidation(t *testing.T) {
	f := lfrFixture(t, 1000, 4)
	opt := DefaultOptions(1)
	opt.Passes = -1
	const want = "match: negative refinement passes (-1)"
	if _, err := MatchProperty(f.et, f.n, f.rowLabels(), f.target, opt); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

func TestMultiPassDeterministic(t *testing.T) {
	g, target, sizes, _ := restreamSetup(t, 2000, 8)
	order := RandomOrder(g.N(), 4)
	a, err := assigned(newPart(t, target, sizes).partition(g, order, make([]uint32, g.N()), 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := assigned(newPart(t, target, sizes).partition(g, order, make([]uint32, g.N()), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("multi-pass not deterministic")
		}
	}
}
