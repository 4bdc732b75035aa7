package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestU64Deterministic(t *testing.T) {
	s := NewStream(42)
	for i := int64(0); i < 1000; i++ {
		if s.U64(i) != s.U64(i) {
			t.Fatalf("U64(%d) not deterministic", i)
		}
	}
}

func TestU64DistinctSeeds(t *testing.T) {
	a, b := NewStream(1), NewStream(2)
	same := 0
	for i := int64(0); i < 1000; i++ {
		if a.U64(i) == b.U64(i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestU64Avalanche(t *testing.T) {
	// Adjacent counters should differ in roughly half the bits.
	s := NewStream(7)
	totalBits := 0
	n := 2000
	for i := 0; i < n; i++ {
		d := s.U64(int64(i)) ^ s.U64(int64(i+1))
		totalBits += popcount(d)
	}
	avg := float64(totalBits) / float64(n)
	if avg < 28 || avg > 36 {
		t.Fatalf("avalanche average bit flips = %.2f, want ~32", avg)
	}
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(3)
	for i := int64(0); i < 10000; i++ {
		v := s.Float64(i)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64(%d) = %v out of [0,1)", i, v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(11)
	sum := 0.0
	n := int64(200000)
	for i := int64(0); i < n; i++ {
		sum += s.Float64(i)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewStream(5)
	for _, n := range []int64{1, 2, 3, 7, 100, 1 << 40} {
		for i := int64(0); i < 2000; i++ {
			v := s.Intn(i, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d, %d) = %d out of range", i, n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := NewStream(9)
	const n = 10
	counts := make([]int, n)
	draws := 100000
	for i := 0; i < draws; i++ {
		counts[s.Intn(int64(i), n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", k, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewStream(0).Intn(0, 0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewStream(13)
	n := int64(200000)
	sum, sumSq := 0.0, 0.0
	for i := int64(0); i < n; i++ {
		v := s.NormFloat64(i)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestDeriveStreamIndependence(t *testing.T) {
	master := NewStream(99)
	a := master.DeriveStream("Person.country")
	b := master.DeriveStream("Person.sex")
	if a.Seed() == b.Seed() {
		t.Fatal("derived streams share a seed")
	}
	c := master.DeriveStream("Person.country")
	if a.Seed() != c.Seed() {
		t.Fatal("DeriveStream not deterministic")
	}
}

func TestPermIsBijection(t *testing.T) {
	s := NewStream(21)
	for _, n := range []int64{1, 2, 5, 16, 17, 100, 1000} {
		seen := make(map[int64]bool, n)
		for p := int64(0); p < n; p++ {
			v := s.Perm(p, n)
			if v < 0 || v >= n {
				t.Fatalf("Perm(%d, %d) = %d out of range", p, n, v)
			}
			if seen[v] {
				t.Fatalf("Perm over n=%d repeats value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermBijectionProperty(t *testing.T) {
	// Property: for random n and seeds, Perm is a bijection on [0,n).
	f := func(seed uint64, nRaw uint16) bool {
		n := int64(nRaw%500) + 1
		s := NewStream(seed)
		seen := make(map[int64]bool, n)
		for p := int64(0); p < n; p++ {
			v := s.Perm(p, n)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkU64(b *testing.B) {
	s := NewStream(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.U64(int64(i))
	}
	_ = sink
}

func BenchmarkPerm(b *testing.B) {
	s := NewStream(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink ^= s.Perm(int64(i)%1000000, 1000000)
	}
	_ = sink
}

func TestDeriveNIndependentChildren(t *testing.T) {
	base := NewStream(7)
	seen := map[uint64]bool{base.Seed(): true}
	for i := uint64(0); i < 1000; i++ {
		c := base.DeriveN(i)
		if seen[c.Seed()] {
			t.Fatalf("child %d collides", i)
		}
		seen[c.Seed()] = true
		if c.Seed() != base.DeriveN(i).Seed() {
			t.Fatalf("child %d not deterministic", i)
		}
	}
	// Children of different parents must differ too.
	if NewStream(7).DeriveN(3).Seed() == NewStream(8).DeriveN(3).Seed() {
		t.Fatal("children of different parents collide")
	}
}

func TestSeqDeterministicAndBounded(t *testing.T) {
	a, b := NewSeq(11), NewSeq(11)
	for i := 0; i < 1000; i++ {
		va, vb := a.U64(), b.U64()
		if va != vb {
			t.Fatalf("draw %d differs", i)
		}
	}
	q := NewSeq(5)
	for i := 0; i < 1000; i++ {
		if v := q.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := q.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestSeqShuffleIsPermutation(t *testing.T) {
	q := NewSeq(3)
	xs := make([]int64, 500)
	for i := range xs {
		xs[i] = int64(i)
	}
	q.ShuffleInt64(xs)
	seen := make([]bool, len(xs))
	moved := 0
	for i, v := range xs {
		if v < 0 || v >= int64(len(xs)) || seen[v] {
			t.Fatalf("not a permutation at %d: %d", i, v)
		}
		seen[v] = true
		if v != int64(i) {
			moved++
		}
	}
	if moved < len(xs)/2 {
		t.Fatalf("shuffle barely moved anything (%d/%d)", moved, len(xs))
	}
}

func TestSeqUniformitySmoke(t *testing.T) {
	q := NewSeq(9)
	const n, draws = 16, 64000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[q.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("value %d drawn %d times, want ~%.0f", k, c, want)
		}
	}
}
