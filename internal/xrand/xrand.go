// Package xrand implements the deterministic, randomly addressable
// pseudo-random number generation substrate that DataSynth's in-place
// data generation relies on.
//
// The paper (Section 4.1) requires a PRNG with "skip seed": a function
//
//	r : (i : Long) -> Long
//
// returning the i-th number of a reproducible sequence in O(1), so that
// the property value of any row can be regenerated on any worker by
// knowing only its id. We implement r as a counter-based generator: the
// i-th output is a strong 64-bit mix of (seed, i). This gives O(1)
// random access, no shared state, and therefore embarrassingly parallel
// generation.
//
// Streams are identified by a Stream value; DataSynth builds a distinct
// stream for every property table to keep properties independent
// (Section 4.1: "DataSynth builds a different r() for each PT").
package xrand

import (
	"math"
	"math/bits"
)

// Stream is a randomly addressable pseudo-random sequence. The zero
// value is a valid stream (seed 0); distinct seeds yield statistically
// independent sequences.
type Stream struct {
	seed uint64
}

// NewStream returns the stream identified by seed.
func NewStream(seed uint64) Stream { return Stream{seed: seed} }

// DeriveStream returns a child stream deterministically derived from s
// and a label hash. It is used to build one independent stream per
// property table from a single master seed.
func (s Stream) DeriveStream(label string) Stream {
	h := s.seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return Stream{seed: mix64(h)}
}

// DeriveN returns the i-th numbered child stream — the integer
// analogue of DeriveStream, without the label-hashing cost. It is the
// substrate for per-shard RNG streams (e.g. one stream per LFR
// community keyed off (schema seed, task id, community id)): children
// are statistically independent of each other and of the parent, and
// the derivation is a pure function of (seed, i), so shards can be
// processed in any order — or concurrently — with identical results.
func (s Stream) DeriveN(i uint64) Stream {
	return Stream{seed: mix64(s.seed ^ (i+1)*0x9e3779b97f4a7c15)}
}

// Seed returns the stream's seed.
func (s Stream) Seed() uint64 { return s.seed }

// mix64 is the SplitMix64 finalizer (Steele et al.), a bijective mixing
// of 64-bit values with full avalanche. It is the core of the
// counter-based generator.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// U64 returns the i-th 64-bit value of the stream in O(1).
func (s Stream) U64(i int64) uint64 {
	// Two rounds of mixing over (seed, counter) pass PractRand-style
	// smoke tests and are plenty for synthetic data generation.
	return mix64(mix64(uint64(i)+0x632be59bd9b4e019) ^ s.seed)
}

// U64n returns the i-th value reduced to [0, n) without modulo bias,
// using Lemire's multiply-shift reduction with rejection.
func (s Stream) U64n(i int64, n uint64) uint64 {
	if n == 0 {
		panic("xrand: U64n with n == 0")
	}
	v := s.U64(i)
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		// Rejection zone: re-draw from decorrelated substreams.
		thresh := -n % n
		for j := int64(1); lo < thresh; j++ {
			v = mix64(s.U64(i) ^ uint64(j)*0xd1342543de82ef95)
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Intn returns the i-th value uniform in [0, n). n must be positive.
func (s Stream) Intn(i int64, n int64) int64 {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int64(s.U64n(i, uint64(n)))
}

// Float64 returns the i-th value uniform in [0, 1).
func (s Stream) Float64(i int64) float64 {
	return float64(s.U64(i)>>11) / (1 << 53)
}

// Float64Range returns the i-th value uniform in [lo, hi).
func (s Stream) Float64Range(i int64, lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64(i)
}

// NormFloat64 returns the i-th standard-normal value, computed with the
// Box-Muller transform over two decorrelated uniforms derived from the
// same index (so one index still maps to one deterministic value).
func (s Stream) NormFloat64(i int64) float64 {
	u1 := float64(s.U64(i)>>11)/(1<<53) + 0.5/(1<<53) // avoid log(0)
	u2 := float64(mix64(s.U64(i)^0xa0761d6478bd642f)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm applies the i-th deterministic pseudo-random permutation pick:
// it returns position p's element of a Fisher-Yates-free "cipher"
// permutation of [0,n). It uses a format-preserving 4-round Feistel
// network over the index domain, so Perm is a bijection on [0, n) for
// every stream — the basis of in-place random assignment without
// materialising a permutation array.
func (s Stream) Perm(p, n int64) int64 {
	if n <= 0 {
		panic("xrand: Perm with non-positive n")
	}
	if p < 0 || p >= n {
		panic("xrand: Perm position out of range")
	}
	// Cycle-walking Feistel over the smallest power-of-4-ish domain >= n.
	bits := uint(1)
	for int64(1)<<bits < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	half := bits / 2
	mask := int64(1)<<half - 1
	x := p
	for {
		l, r := x>>half, x&mask
		for round := uint64(0); round < 4; round++ {
			f := int64(mix64(uint64(r)^s.seed^round*0x9e3779b97f4a7c15)) & mask
			l, r = r, (l^f)&mask
		}
		x = l<<half | r
		if x < n {
			return x
		}
	}
}

// Seq is a sequential splitmix64 generator (Steele et al., the
// algorithm behind Java's SplittableRandom) for inherently sequential
// batch algorithms: configuration-model shuffles, rejection loops,
// attachment walks. Where the addressable Stream pays two mix64 rounds
// per draw to make every index independently addressable, Seq advances
// a Weyl state and finalises once — half the mixing work on paths that
// consume numbers strictly in order. The zero value is a valid
// generator (seed 0).
type Seq struct {
	state uint64
}

// NewSeq returns a sequential generator; use a Stream-derived seed
// (e.g. NewStream(seed).DeriveN(shard).Seed()) to key one Seq per
// shard.
func NewSeq(seed uint64) *Seq { return &Seq{state: seed} }

// U64 returns the next 64-bit value.
func (q *Seq) U64() uint64 {
	q.state += 0x9e3779b97f4a7c15
	return mix64(q.state)
}

// U64n returns the next value reduced to [0, n) without modulo bias
// (Lemire multiply-shift with rejection).
func (q *Seq) U64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Seq.U64n with n == 0")
	}
	hi, lo := bits.Mul64(q.U64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(q.U64(), n)
		}
	}
	return hi
}

// Intn returns the next value uniform in [0, n). n must be positive.
func (q *Seq) Intn(n int64) int64 {
	if n <= 0 {
		panic("xrand: Seq.Intn with non-positive n")
	}
	return int64(q.U64n(uint64(n)))
}

// Float64 returns the next value uniform in [0, 1).
func (q *Seq) Float64() float64 {
	return float64(q.U64()>>11) / (1 << 53)
}

// ShuffleInt64 permutes xs in place (Fisher–Yates).
func (q *Seq) ShuffleInt64(xs []int64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := q.Intn(int64(i + 1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
