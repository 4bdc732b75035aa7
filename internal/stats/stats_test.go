package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"datasynth/internal/table"
)

func TestJointSymmetricAccess(t *testing.T) {
	j := NewJoint(3)
	j.Set(2, 0, 0.5)
	if j.At(0, 2) != 0.5 || j.At(2, 0) != 0.5 {
		t.Errorf("symmetric access broken: %v %v", j.At(0, 2), j.At(2, 0))
	}
	j.Add(0, 2, 0.25)
	if j.At(2, 0) != 0.75 {
		t.Errorf("Add broken: %v", j.At(2, 0))
	}
}

func TestJointNormalizeAndValidate(t *testing.T) {
	j := NewJoint(2)
	j.Set(0, 0, 2)
	j.Set(0, 1, 1)
	j.Set(1, 1, 1)
	if err := j.Validate(); err == nil {
		t.Error("unnormalised joint should fail validation")
	}
	j.Normalize()
	if err := j.Validate(); err != nil {
		t.Errorf("normalised joint invalid: %v", err)
	}
	if math.Abs(j.At(0, 0)-0.5) > 1e-12 {
		t.Errorf("P(0,0) = %v, want 0.5", j.At(0, 0))
	}
}

func TestJointValidateRejectsNegative(t *testing.T) {
	j := NewJoint(2)
	j.Set(0, 0, -1)
	if err := j.Validate(); err == nil {
		t.Error("negative probability should fail")
	}
}

// twoByTwo is the two-domain joint over 2 tail and 2 head values with
// mass d on the aligned pairs (0,0) and (1,1).
func twoByTwo(d float64) *Joint {
	j := NewJoint(4)
	j.Tails = 2
	j.Set(0, 2, d/2)
	j.Set(1, 3, d/2)
	j.Set(0, 3, (1-d)/2)
	j.Set(1, 2, (1-d)/2)
	return j
}

func TestJointValidateTwoDomain(t *testing.T) {
	if err := twoByTwo(0.8).Validate(); err != nil {
		t.Fatal(err)
	}
	short := twoByTwo(0.8)
	short.Set(0, 2, 0)
	if err := short.Validate(); err == nil {
		t.Error("mass != 1 should fail")
	}
	neg := NewJoint(2)
	neg.Tails = 1
	neg.Set(0, 1, -1)
	if err := neg.Validate(); err == nil {
		t.Error("negative cell should fail")
	}
	// Mass between two tail values, or two head values, joins one
	// domain to itself.
	for _, cell := range [][2]int{{0, 1}, {2, 3}, {3, 3}} {
		j := twoByTwo(1)
		j.Set(0, 2, 0)
		j.Set(cell[0], cell[1], 0.5)
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "one domain") {
			t.Errorf("mass at %v: err = %v, want a one-domain refusal", cell, err)
		}
	}
	for _, tails := range []int{-1, 4, 5} {
		j := twoByTwo(0.8)
		j.Tails = tails
		if err := j.Validate(); err == nil {
			t.Errorf("Tails = %d of K = 4 should fail", tails)
		}
	}
}

func TestJointNormalizeTwoDomain(t *testing.T) {
	j := NewJoint(4)
	j.Tails = 2
	j.Set(0, 2, 2)
	j.Set(1, 3, 2)
	j.Normalize()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.At(0, 2)-0.5) > 1e-12 {
		t.Errorf("normalised cell = %v", j.At(0, 2))
	}
}

func TestEmpiricalJoint(t *testing.T) {
	et := table.NewEdgeTable("e", 4)
	et.Add(0, 1) // labels 0-0
	et.Add(1, 2) // labels 0-1
	et.Add(2, 3) // labels 1-1
	et.Add(0, 2) // labels 0-1
	labels := []int64{0, 0, 1, 1}
	j, err := EmpiricalJoint(et, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.At(0, 0)-0.25) > 1e-12 {
		t.Errorf("P(0,0) = %v, want 0.25", j.At(0, 0))
	}
	if math.Abs(j.At(0, 1)-0.5) > 1e-12 {
		t.Errorf("P(0,1) = %v, want 0.5", j.At(0, 1))
	}
	if math.Abs(j.At(1, 1)-0.25) > 1e-12 {
		t.Errorf("P(1,1) = %v, want 0.25", j.At(1, 1))
	}
	if err := j.Validate(); err != nil {
		t.Errorf("empirical joint invalid: %v", err)
	}
}

func TestEmpiricalJointErrors(t *testing.T) {
	et := table.NewEdgeTable("e", 1)
	et.Add(0, 5)
	if _, err := EmpiricalJoint(et, []int64{0, 0}, 2); err == nil {
		t.Error("endpoint outside labelling should fail")
	}
	et2 := table.NewEdgeTable("e", 1)
	et2.Add(0, 1)
	if _, err := EmpiricalJoint(et2, []int64{0, 9}, 2); err == nil {
		t.Error("label outside range should fail")
	}
}

func TestEmpiricalJointEmpty(t *testing.T) {
	et := table.NewEdgeTable("e", 0)
	j, err := EmpiricalJoint(et, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if j.Total() != 0 {
		t.Errorf("empty joint mass = %v", j.Total())
	}
}

func TestSortedPairsOrder(t *testing.T) {
	j := NewJoint(3)
	j.Set(0, 0, 0.1)
	j.Set(0, 1, 0.4)
	j.Set(1, 2, 0.3)
	j.Set(2, 2, 0.2)
	pairs := j.SortedPairs()
	if len(pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].P > pairs[i-1].P {
			t.Fatalf("pairs not sorted at %d", i)
		}
	}
	if pairs[0].A != 0 || pairs[0].B != 1 {
		t.Errorf("top pair = (%d,%d), want (0,1)", pairs[0].A, pairs[0].B)
	}
}

func TestCDFPairIdentical(t *testing.T) {
	j := NewJoint(2)
	j.Set(0, 0, 0.6)
	j.Set(0, 1, 0.3)
	j.Set(1, 1, 0.1)
	c, err := NewCDFPair(j, j)
	if err != nil {
		t.Fatal(err)
	}
	if ks := c.KS(); ks != 0 {
		t.Errorf("KS of identical dists = %v", ks)
	}
	if last := c.Expected[len(c.Expected)-1]; math.Abs(last-1) > 1e-9 {
		t.Errorf("expected CDF ends at %v", last)
	}
}

func TestCDFPairDisjoint(t *testing.T) {
	a := NewJoint(2)
	a.Set(0, 0, 1)
	b := NewJoint(2)
	b.Set(1, 1, 1)
	c, err := NewCDFPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ks := c.KS(); math.Abs(ks-1) > 1e-12 {
		t.Errorf("KS of disjoint dists = %v, want 1", ks)
	}
	if _, err := NewCDFPair(a, NewJoint(3)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestL1Distance(t *testing.T) {
	a := NewJoint(2)
	a.Set(0, 0, 1)
	b := NewJoint(2)
	b.Set(1, 1, 1)
	d, err := L1(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-12 {
		t.Errorf("L1 disjoint = %v, want 2", d)
	}
	d2, _ := L1(a, a)
	if d2 != 0 {
		t.Errorf("L1 self = %v", d2)
	}
}

func TestJensenShannonBounds(t *testing.T) {
	a := NewJoint(2)
	a.Set(0, 0, 1)
	b := NewJoint(2)
	b.Set(1, 1, 1)
	js, err := JensenShannon(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(js-1) > 1e-9 {
		t.Errorf("JS disjoint = %v, want 1", js)
	}
	js2, _ := JensenShannon(a, a)
	if js2 != 0 {
		t.Errorf("JS self = %v", js2)
	}
}

func TestFrequencies(t *testing.T) {
	f, err := Frequencies([]int64{0, 1, 1, 2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 || f[1] != 2 || f[2] != 3 {
		t.Errorf("frequencies = %v", f)
	}
	if _, err := Frequencies([]int64{5}, 3); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestHomophilyJointExtremes(t *testing.T) {
	sizes := []int64{100, 200, 300}
	full, err := HomophilyJoint(sizes, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			if full.At(a, b) != 0 {
				t.Errorf("homophily=1 has inter mass at (%d,%d)", a, b)
			}
		}
	}
	free, err := HomophilyJoint(sizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		if free.At(a, a) != 0 {
			t.Errorf("homophily=0 has intra mass at %d", a)
		}
	}
}

func TestHomophilyJointSingleGroup(t *testing.T) {
	j, err := HomophilyJoint([]int64{10}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.At(0, 0)-1) > 1e-12 {
		t.Errorf("single group P(0,0) = %v", j.At(0, 0))
	}
}

func TestHomophilyJointErrors(t *testing.T) {
	if _, err := HomophilyJoint(nil, 0.5); err == nil {
		t.Error("empty sizes should fail")
	}
	if _, err := HomophilyJoint([]int64{1}, 2); err == nil {
		t.Error("homophily > 1 should fail")
	}
	if _, err := HomophilyJoint([]int64{0}, 0.5); err == nil {
		t.Error("zero group should fail")
	}
}

func TestHomophilyJointAlwaysProper(t *testing.T) {
	f := func(sizesRaw []uint16, hRaw uint8) bool {
		sizes := make([]int64, 0, len(sizesRaw))
		for _, s := range sizesRaw {
			if s > 0 {
				sizes = append(sizes, int64(s))
			}
		}
		if len(sizes) == 0 {
			return true
		}
		h := float64(hRaw) / 255
		j, err := HomophilyJoint(sizes, h)
		if err != nil {
			return false
		}
		return j.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(cells []uint8) bool {
		k := 4
		j := NewJoint(k)
		idx := 0
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				if idx < len(cells) {
					j.Set(a, b, float64(cells[idx]))
				}
				idx++
			}
		}
		if j.Total() == 0 {
			return true
		}
		j.Normalize()
		c, err := NewCDFPair(j, j)
		if err != nil {
			return false
		}
		for i := 1; i < len(c.Expected); i++ {
			if c.Expected[i] < c.Expected[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAlignedHomophilyJoint: the two-domain model puts mass h on the
// pairs aligned modulo min(kt, kh), in proportion to the product of the
// weights, and 1−h on the rest; the result is a proper two-domain joint.
func TestAlignedHomophilyJoint(t *testing.T) {
	tailW, headW := []float64{4, 3, 2}, []float64{1, 1}
	j, err := AlignedHomophilyJoint(tailW, headW, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if j.K != 5 || j.Tails != 3 {
		t.Fatalf("K = %d, Tails = %d, want 5 and 3", j.K, j.Tails)
	}
	var aligned float64
	for a := range tailW {
		for b := range headW {
			if a%2 == b%2 {
				aligned += j.At(a, 3+b)
			}
		}
	}
	if math.Abs(aligned-0.75) > 1e-12 {
		t.Errorf("aligned mass = %v, want 0.75", aligned)
	}
	// Tail 0 and tail 2 share head 0 in proportion to their weights.
	if r := j.At(0, 3) / j.At(2, 3); math.Abs(r-2) > 1e-12 {
		t.Errorf("P(0,0)/P(2,0) = %v, want 2", r)
	}
	full, err := AlignedHomophilyJoint(tailW, headW, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.At(0, 3+1) != 0 || full.At(1, 3+0) != 0 {
		t.Errorf("homophily 1 put mass on unaligned pairs: %v", full.P)
	}
	if _, err := AlignedHomophilyJoint(nil, headW, 0.5); err == nil {
		t.Error("no tail values should fail")
	}
}
