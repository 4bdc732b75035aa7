package xrand

import (
	"fmt"
	"math"
	"testing"
)

// The guide table must be invisible: SampleU with it returns what the
// plain binary search over all of cum returns, for every u. The harness
// probes the values where a bucket or a comparison could flip.

// fullSearch is SampleU as it was before the guide table: the binary
// search over all of cum.
func fullSearch(cum []float64, u float64) int {
	lo, hi := 0, len(cum)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkGuideAgainstSearch compares the guided SampleU of a
// distribution over weights with fullSearch at adversarial u.
func checkGuideAgainstSearch(t *testing.T, weights []float64) {
	t.Helper()
	d, err := NewDiscrete(weights)
	if err != nil {
		return // no positive weight: nothing to sample
	}
	check := func(u float64) {
		if got, want := d.SampleU(u), fullSearch(d.cum, u); got != want {
			t.Fatalf("n=%d G=%v: SampleU(%v) = %d, full search %d", len(d.cum), d.buckets, u, got, want)
		}
	}
	around := func(u float64) {
		check(math.Nextafter(u, -1))
		check(u)
		check(math.Nextafter(u, 2))
	}
	around(0)
	check(1 - 1.0/(1<<53))
	for _, c := range d.cum {
		around(c)
	}
	for b := 0.0; b <= d.buckets; b++ {
		around(b / d.buckets)
	}
	// Outside [0,1) there is no bucket; the full search answers.
	for _, u := range []float64{-0.5, 1, 1.5, math.Inf(1), math.NaN()} {
		check(u)
	}
}

// fuzzWeights decodes byte pairs (m, e) into weights m·2^(-5e): e
// sweeps from ordinary magnitudes through denormals to exact zeros, so
// one input can hold a dominant weight beside ones that vanish when
// normalised.
func fuzzWeights(data []byte) []float64 {
	w := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		w = append(w, math.Ldexp(float64(data[i]), -5*int(data[i+1])))
	}
	return w
}

func FuzzDiscreteGuide(f *testing.F) {
	f.Add([]byte{1, 0})                                     // n = 1
	f.Add([]byte{0, 0, 0, 0, 7, 0, 0, 0})                   // zeros around one weight
	f.Add([]byte{255, 0, 1, 200, 1, 210, 1, 214, 3, 9})     // dominant + denormals
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}) // uniform, cum on no bucket edge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkGuideAgainstSearch(t, fuzzWeights(data))
	})
}

// TestDiscreteGuideMatchesSearch runs the fuzz body on every ordinary
// `go test`: byte-derived weights at many sizes, and the Zipf and
// power-law shapes the generators really build.
func TestDiscreteGuideMatchesSearch(t *testing.T) {
	q := NewSeq(11)
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 2*(1+int(q.Intn(80))))
		for i := range data {
			data[i] = byte(q.U64())
			if i%2 == 1 && trial%3 != 0 {
				data[i] %= 4 // comparable magnitudes: every weight counts
			}
		}
		checkGuideAgainstSearch(t, fuzzWeights(data))
	}
	for _, n := range []int{1, 2, 3, 17, 195, 1000, guideMaxBuckets/4 + 1, guideMaxBuckets + 3} {
		for _, theta := range []float64{0.2, 1, 2.5} {
			w := make([]float64, n)
			for k := range w {
				w[k] = math.Pow(float64(k+1), -theta)
			}
			checkGuideAgainstSearch(t, w)
		}
	}
	// The support zipf-attachment samples on the bench workload, at the
	// draws it really makes.
	z, err := NewPowerLawInt(1, 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(3)
	for i := int64(0); i < 200000; i++ {
		u := s.Float64(i)
		if got, want := z.d.SampleU(u), fullSearch(z.d.cum, u); got != want {
			t.Fatalf("zipf(30000): SampleU(%v) = %d, full search %d", u, got, want)
		}
	}
}

// BenchmarkDiscreteSampleU times CDF inversion alone (uniforms drawn
// beforehand) at the supports the schemas use: a boolean-like column,
// a small vocabulary, the 195-country categorical and zipf-attachment's
// 30 000 heads.
func BenchmarkDiscreteSampleU(b *testing.B) {
	us := make([]float64, 1<<16) // more than a branch predictor learns
	s := NewStream(9)
	for i := range us {
		us[i] = s.Float64(int64(i))
	}
	for _, n := range []int{2, 64, 195, 30000} {
		z, err := NewPowerLawInt(1, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += z.d.SampleU(us[i&(len(us)-1)])
			}
			_ = sink
		})
	}
}
