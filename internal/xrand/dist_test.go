package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiscreteValidation(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		wantErr bool
	}{
		{"empty", nil, true},
		{"all zero", []float64{0, 0}, true},
		{"negative", []float64{1, -1}, true},
		{"nan", []float64{1, math.NaN()}, true},
		{"inf", []float64{1, math.Inf(1)}, true},
		{"ok", []float64{1, 2, 3}, false},
		{"single", []float64{5}, false},
		{"with zeros", []float64{0, 1, 0}, false},
	}
	for _, c := range cases {
		_, err := NewDiscrete(c.weights)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

// mustDiscrete builds a distribution a test needs.
func mustDiscrete(t *testing.T, weights []float64) *Discrete {
	t.Helper()
	d, err := NewDiscrete(weights)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiscreteProbs(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 2, 1})
	want := []float64{0.25, 0.5, 0.25}
	for k, w := range want {
		if math.Abs(d.Prob(k)-w) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want %v", k, d.Prob(k), w)
		}
	}
}

func TestDiscreteSamplingFrequencies(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 2, 7})
	s := NewStream(100)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(s, int64(i))]++
	}
	for k := 0; k < 3; k++ {
		got := float64(counts[k]) / float64(n)
		if math.Abs(got-d.Prob(k)) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", k, got, d.Prob(k))
		}
	}
}

func TestDiscreteZeroWeightNeverSampled(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 0, 1})
	s := NewStream(4)
	for i := 0; i < 10000; i++ {
		if d.Sample(s, int64(i)) == 1 {
			t.Fatal("zero-weight category was sampled")
		}
	}
}

func TestDiscreteSampleUBoundaries(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 1})
	if d.SampleU(0) != 0 {
		t.Errorf("SampleU(0) = %d, want 0", d.SampleU(0))
	}
	if d.SampleU(0.999999) != 1 {
		t.Errorf("SampleU(~1) = %d, want 1", d.SampleU(0.999999))
	}
}

// TestPowerLawIntZipf checks the power law from 1, the Zipf law
// zipf-attachment and the zipf categorical draw ranks from.
func TestPowerLawIntZipf(t *testing.T) {
	z, err := NewPowerLawInt(1, 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// P(1)/P(2) must be 2 for gamma = 1.
	if r := z.Prob(1) / z.Prob(2); math.Abs(r-2) > 1e-9 {
		t.Errorf("zipf ratio P(1)/P(2) = %v, want 2", r)
	}
	sum := z.Prob(1)
	for k := 2; k <= 100; k++ {
		if z.Prob(k) > z.Prob(k-1) {
			t.Fatalf("zipf not monotone at %d", k)
		}
		sum += z.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf probabilities sum to %v, want 1", sum)
	}
}

func TestPowerLawIntBoundsAndMean(t *testing.T) {
	p, err := NewPowerLawInt(5, 50, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(23)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		v := p.Sample(s, int64(i))
		if v < 5 || v > 50 {
			t.Fatalf("power law sample %d out of [5,50]", v)
		}
		sum += float64(v)
	}
	empirical := sum / float64(n)
	if math.Abs(empirical-p.Mean()) > 0.15 {
		t.Errorf("power law empirical mean %v vs analytic %v", empirical, p.Mean())
	}
}

func TestPowerLawIntValidation(t *testing.T) {
	if _, err := NewPowerLawInt(0, 10, 2); err == nil {
		t.Error("min=0 should fail")
	}
	if _, err := NewPowerLawInt(10, 5, 2); err == nil {
		t.Error("max<min should fail")
	}
	if _, err := NewPowerLawInt(1, 10, 0); err == nil {
		t.Error("gamma=0 should fail")
	}
}

// TestZipfValidation checks the Zipf law (PowerLawInt from 1) rejects an
// empty support and a non-positive or NaN exponent.
func TestZipfValidation(t *testing.T) {
	if _, err := NewPowerLawInt(1, 0, 1); err == nil {
		t.Error("an empty support should fail")
	}
	for _, gamma := range []float64{0, -1, math.NaN()} {
		if _, err := NewPowerLawInt(1, 10, gamma); err == nil {
			t.Errorf("gamma=%v should fail", gamma)
		}
	}
}

func TestGroupSizesExactSum(t *testing.T) {
	for _, tc := range []struct {
		n int64
		k int
	}{{100, 4}, {1000, 16}, {999983, 64}, {10, 10}, {17, 3}} {
		sizes, err := GroupSizes(tc.n, tc.k, 0.4)
		if err != nil {
			t.Fatalf("GroupSizes(%d,%d): %v", tc.n, tc.k, err)
		}
		var sum int64
		for i, s := range sizes {
			if s <= 0 {
				t.Fatalf("GroupSizes(%d,%d): group %d has size %d", tc.n, tc.k, i, s)
			}
			sum += s
		}
		if sum != tc.n {
			t.Fatalf("GroupSizes(%d,%d) sums to %d", tc.n, tc.k, sum)
		}
	}
}

func TestGroupSizesShape(t *testing.T) {
	// With geo(0.4), early groups should be larger, and the tail should
	// flatten at the 1/k floor.
	sizes, err := GroupSizes(100000, 16, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] <= sizes[1] || sizes[1] <= sizes[2] {
		t.Errorf("head of group sizes not decreasing: %v", sizes[:4])
	}
	// Tail groups hit the 1/k floor so they should be nearly equal.
	last, prev := sizes[15], sizes[14]
	if math.Abs(float64(last-prev)) > float64(last)/10 {
		t.Errorf("tail groups differ too much: %d vs %d", prev, last)
	}
}

func TestGroupSizesErrors(t *testing.T) {
	if _, err := GroupSizes(0, 4, 0.4); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := GroupSizes(10, 0, 0.4); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := GroupSizes(3, 5, 0.4); err == nil {
		t.Error("k>n should fail")
	}
}

// TestGeometricEdgeCases checks the geometric parameter GroupSizes takes:
// p must lie in (0, 1], and p = 1 (all mass on the first group) is valid.
func TestGeometricEdgeCases(t *testing.T) {
	for _, p := range []float64{0, 1.5, math.NaN()} {
		if _, err := GroupSizes(10, 4, p); err == nil {
			t.Errorf("p=%v should fail", p)
		}
	}
	if _, err := GroupSizes(10, 4, 1); err != nil {
		t.Errorf("p=1 should work: %v", err)
	}
}

func TestGroupSizesProperty(t *testing.T) {
	f := func(nRaw uint32, kRaw uint8) bool {
		n := int64(nRaw%100000) + 1
		k := int(kRaw%64) + 1
		if int64(k) > n {
			k = int(n)
		}
		sizes, err := GroupSizes(n, k, 0.4)
		if err != nil {
			return false
		}
		var sum int64
		for _, s := range sizes {
			if s <= 0 {
				return false
			}
			sum += s
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscreteSampleProperty(t *testing.T) {
	// Property: samples are always within range for arbitrary weights.
	f := func(ws []float64, seed uint64) bool {
		clean := make([]float64, 0, len(ws))
		for _, w := range ws {
			if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
				clean = append(clean, w)
			}
		}
		if len(clean) == 0 {
			return true
		}
		d, err := NewDiscrete(clean)
		if err != nil {
			return false
		}
		s := NewStream(seed)
		for i := int64(0); i < 100; i++ {
			k := d.Sample(s, i)
			if k < 0 || k >= len(clean) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
