package match

import (
	"math"
	"testing"
	"testing/quick"
)

func fusedTarget2x2(d float64) *BipartiteTarget {
	// Diagonal mass d split evenly, off-diagonal the rest.
	t := NewBipartiteTarget(2, 2)
	t.Set(0, 0, d/2)
	t.Set(1, 1, d/2)
	t.Set(0, 1, (1-d)/2)
	t.Set(1, 0, (1-d)/2)
	return t
}

func TestFusedOneToManyExactJoint(t *testing.T) {
	tailLabels := make([]int64, 100)
	for i := 50; i < 100; i++ {
		tailLabels[i] = 1
	}
	target := fusedTarget2x2(0.8)
	m := int64(10000)
	et, headLabels, err := FusedOneToMany(tailLabels, 2, 2, m, target, 7)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != m {
		t.Fatalf("edges = %d, want %d", et.Len(), m)
	}
	if int64(len(headLabels)) != m {
		t.Fatalf("head labels = %d", len(headLabels))
	}
	// Heads dense [0, m).
	seen := make([]bool, m)
	for i := int64(0); i < m; i++ {
		h := et.Head[i]
		if int64(h) >= m || seen[h] {
			t.Fatal("heads not dense/unique")
		}
		seen[h] = true
	}
	// Observed joint equals target up to rounding (< cells/m).
	l1, err := FusedQuality(et, tailLabels, headLabels, target)
	if err != nil {
		t.Fatal(err)
	}
	if l1 > 4.0/float64(m)+1e-9 {
		t.Errorf("fused 1-* L1 = %v, want <= rounding bound %v", l1, 4.0/float64(m))
	}
}

func TestFusedOneToManyTailsRespectValues(t *testing.T) {
	tailLabels := []int64{0, 0, 1}
	target := fusedTarget2x2(1.0) // only (0,0) and (1,1)
	et, headLabels, err := FusedOneToMany(tailLabels, 2, 2, 1000, target, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < et.Len(); e++ {
		if tailLabels[et.Tail[e]] != headLabels[e] {
			t.Fatalf("edge %d links tail value %d to head value %d under a diagonal target",
				e, tailLabels[et.Tail[e]], headLabels[e])
		}
	}
}

func TestFusedOneToManyErrors(t *testing.T) {
	target := fusedTarget2x2(0.8)
	if _, _, err := FusedOneToMany([]int64{0}, 2, 2, 0, target, 1); err == nil {
		t.Error("m=0 should fail")
	}
	if _, _, err := FusedOneToMany([]int64{5}, 2, 2, 10, target, 1); err == nil {
		t.Error("label out of range should fail")
	}
	// Target demands tail value 1 but no row carries it.
	if _, _, err := FusedOneToMany([]int64{0, 0}, 2, 2, 10, target, 1); err == nil {
		t.Error("missing tail value should fail")
	}
	bad := NewBipartiteTarget(2, 2) // zero mass
	if _, _, err := FusedOneToMany([]int64{0, 1}, 2, 2, 10, bad, 1); err == nil {
		t.Error("invalid target should fail")
	}
}

func TestFusedOneToManyDeterministic(t *testing.T) {
	tailLabels := []int64{0, 1, 0, 1}
	target := fusedTarget2x2(0.6)
	a, ha, err := FusedOneToMany(tailLabels, 2, 2, 500, target, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, hb, err := FusedOneToMany(tailLabels, 2, 2, 500, target, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.Tail[i] != b.Tail[i] || ha[i] != hb[i] {
			t.Fatal("fused 1-* not deterministic")
		}
	}
}

func TestRoundQuotasExact(t *testing.T) {
	q, err := roundQuotas([]float64{0.3333, 0.3333, 0.3334}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range q {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("quotas sum to %d", sum)
	}
	if _, err := roundQuotas([]float64{-1}, 10); err == nil {
		t.Error("negative probability should fail")
	}
}

func TestRoundQuotasProperty(t *testing.T) {
	f := func(raw []uint8, totalRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		total := int64(totalRaw%10000) + 1
		sum := 0.0
		probs := make([]float64, len(raw))
		for i, r := range raw {
			probs[i] = float64(r)
			sum += probs[i]
		}
		if sum == 0 {
			return true
		}
		for i := range probs {
			probs[i] /= sum
		}
		q, err := roundQuotas(probs, total)
		if err != nil {
			return false
		}
		var s int64
		for i, v := range q {
			if v < 0 {
				return false
			}
			// Each quota within 1 of exact value.
			if math.Abs(float64(v)-probs[i]*float64(total)) > 1.0000001 {
				return false
			}
			s += v
		}
		return s == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedBeatsStreamingOnStrictConstraints(t *testing.T) {
	// The motivating claim: the fused operator realises the joint
	// exactly (up to rounding) where streaming SBM-Part only
	// approximates it.
	tailLabels := make([]int64, 200)
	for i := 100; i < 200; i++ {
		tailLabels[i] = 1
	}
	target := fusedTarget2x2(0.9)
	m := int64(5000)
	et, headLabels, err := FusedOneToMany(tailLabels, 2, 2, m, target, 13)
	if err != nil {
		t.Fatal(err)
	}
	l1Fused, err := FusedQuality(et, tailLabels, headLabels, target)
	if err != nil {
		t.Fatal(err)
	}
	if l1Fused > 0.001 {
		t.Errorf("fused L1 = %v, want ~0", l1Fused)
	}
}
