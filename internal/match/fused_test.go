package match

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"datasynth/internal/stats"
	"datasynth/internal/table"
)

func fusedTarget2x2(d float64) *stats.Joint {
	// Diagonal mass d split evenly, off-diagonal the rest.
	return twoDomainJoint([][]float64{{d / 2, (1 - d) / 2}, {(1 - d) / 2, d / 2}})
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
	// Observed joint equals target up to rounding: every cell is within
	// one edge of its share.
	if e := maxCellError(t, et, tailLabels, headLabels, target); e > 1/float64(m)+1e-9 {
		t.Errorf("fused 1-* cell error = %v, want <= one edge %v", e, 1/float64(m))
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
	bad := twoDomainJoint([][]float64{{0, 0}, {0, 0}}) // zero mass
	if _, _, err := FusedOneToMany([]int64{0, 1}, 2, 2, 10, bad, 1); err == nil {
		t.Error("invalid target should fail")
	}
	// A one-domain joint over 4 values has no tail/head split.
	one := stats.NewJoint(4)
	one.Set(0, 2, 0.5)
	one.Set(1, 3, 0.5)
	if _, _, err := FusedOneToMany([]int64{0, 1}, 2, 2, 10, one, 1); err == nil || !strings.Contains(err.Error(), "two-domain") {
		t.Errorf("one-domain target: err = %v, want a two-domain refusal", err)
	}
	// Four values split 1|3, not 2|2.
	split := twoDomainJoint([][]float64{{0.2, 0.4, 0.4}})
	if _, _, err := FusedOneToMany([]int64{0, 1}, 2, 2, 10, split, 1); err == nil || !strings.Contains(err.Error(), "target is 1x3, want 2x2") {
		t.Errorf("1×3 target for 2×2: err = %v, want a shape refusal", err)
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
	if e := maxCellError(t, et, tailLabels, headLabels, target); e > 1/float64(m)+1e-9 {
		t.Errorf("fused cell error = %v, want <= one edge %v", e, 1/float64(m))
	}
}

// maxCellError is the largest |observed − target| over the cells of
// the joint that (et, tailLabels, headLabels) realise.
func maxCellError(t *testing.T, et *table.EdgeTable, tailLabels, headLabels []int64, target *stats.Joint) float64 {
	t.Helper()
	obs, err := EmpiricalBipartite(et, tailLabels, headLabels, target.Tails, target.K-target.Tails)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range target.P {
		worst = max(worst, math.Abs(obs.P[i]-target.P[i]))
	}
	return worst
}
