package sgen

import (
	"fmt"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Sharded RMAT generation, applying the LFR sharding contract:
//
//   - Edge draws happen in rounds. A round partitions its draw budget
//     into fixed-size shards; shard s of round r fills the disjoint
//     slab range [s·shardSize, (s+1)·shardSize) with quadrant-recursion
//     draws from its own RNG stream, derived as
//     NewStream(seed).DeriveStream("rmat.shard").DeriveN(r<<20|s).
//     The slab content is a pure function of (seed, round, shard).
//   - Every configuration draws into one slab of raw tail<<32|head
//     candidates: through the alias tables when noiseless, level by
//     level when Noise perturbs the quadrant probabilities.
//   - After the slab is full, one sequential pass resolves it. With
//     KeepDuplicates, candidates append in slab order, skipping only
//     out-of-range endpoints (the cycle-walk for non-power-of-two n).
//     Otherwise self-loops and out-of-range endpoints are dropped, the
//     rest canonicalised to (min<<32|max) in place, sorted in place,
//     and the keys not seen before append in sorted order.
//   - Rounds refill deterministically: the next round's draw budget is
//     a function of how many edges are still missing, which is itself
//     deterministic.

const (
	// rmatShardSize is the draw count of one shard, the unit that owns
	// an RNG stream — part of the byte contract. Large enough that the
	// per-shard stream derivation is noise.
	rmatShardSize = 1 << 16
	// rmatMaxRoundDraws caps one round's slab so slab memory stays
	// bounded (one candidate slab of at most 4M entries, 32 MiB, sorted
	// in place); larger targets simply take more rounds.
	rmatMaxRoundDraws = 1 << 22
	// rmatMaxDryRounds bounds consecutive zero-progress rounds before
	// generation gives up (the graph cannot absorb more distinct edges).
	rmatMaxDryRounds = 8
	// rmatMaxRounds is an absolute backstop against pathological
	// parameters (m close to the densest possible graph).
	rmatMaxRounds = 1000
)

// rmatAliasLevels is the number of recursion levels one alias-table
// draw resolves: 4 levels = 256 outcomes, so the outcome index fits a
// byte and both tables stay L1-resident.
const rmatAliasLevels = 4

// rmatAlias samples whole blocks of quadrant-recursion levels with one
// RNG draw each, via Walker/Vose alias tables. The naive inner loop
// pays one RNG draw plus an unpredictable three-way float comparison
// per level; the alias path folds rmatAliasLevels levels into a single
// draw resolved by one table lookup and one compare. A scale-s draw
// costs ⌈s/4⌉ RNG values instead of s.
//
// Each 64-bit draw splits into a table index (top bits) and a 56-bit
// fraction compared against the entry's threshold — outcome
// probabilities are exact to 2^-56. Only the noiseless path can use
// this: Noise perturbs the quadrant probabilities per level, which
// defeats precomputation.
type rmatAlias struct {
	blocks int // full rmatAliasLevels-level blocks per draw
	thresh []uint64
	alias  []uint16
	nib    []uint8 // packed tail/head bit patterns: tN<<4 | hN

	rem       uint // leftover levels (scale % rmatAliasLevels)
	remThresh []uint64
	remAlias  []uint16
	remNib    []uint8
}

func newRMATAlias(a, b, c, d float64, scale uint) *rmatAlias {
	p := [4]float64{a, b, c, d}
	al := &rmatAlias{blocks: int(scale / rmatAliasLevels), rem: scale % rmatAliasLevels}
	if al.blocks > 0 {
		al.thresh, al.alias, al.nib = buildRMATAlias(p, rmatAliasLevels)
	}
	if al.rem > 0 {
		al.remThresh, al.remAlias, al.remNib = buildRMATAlias(p, al.rem)
	}
	return al
}

// rmatFracOne is the threshold scale: fractions are 56-bit, so a
// threshold of 1<<56 accepts every draw.
const rmatFracOne = uint64(1) << 56

// buildRMATAlias constructs the alias table over all 4^levels outcomes
// of a `levels`-deep quadrant recursion. Outcome o encodes one
// quadrant choice per level, two bits each, highest level first;
// quadrant bits are (tailBit<<1 | headBit), so the packed nibbles can
// be or-shifted directly into the accumulating edge endpoints.
func buildRMATAlias(p [4]float64, levels uint) (thresh []uint64, alias []uint16, nib []uint8) {
	n := 1 << (2 * levels)
	scaled := make([]float64, n)
	nib = make([]uint8, n)
	var total float64
	for o := 0; o < n; o++ {
		pr := 1.0
		var tN, hN uint8
		for l := uint(0); l < levels; l++ {
			q := (o >> (2 * (levels - 1 - l))) & 3
			pr *= p[q]
			tN = tN<<1 | uint8(q>>1)
			hN = hN<<1 | uint8(q&1)
		}
		scaled[o] = pr
		nib[o] = tN<<4 | hN
		total += pr
	}
	// Vose's stable two-worklist construction over p·n/total.
	thresh = make([]uint64, n)
	alias = make([]uint16, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for o := 0; o < n; o++ {
		scaled[o] *= float64(n) / total
		if scaled[o] < 1 {
			small = append(small, o)
		} else {
			large = append(large, o)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		thresh[s] = uint64(float64(scaled[s] * float64(rmatFracOne))) // rounded before the conversion, which subtracts on ppc64le and riscv64
		alias[s] = uint16(g)
		scaled[g] += scaled[s] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers (either list, from float residue) keep their own slot.
	for _, o := range large {
		thresh[o] = rmatFracOne
	}
	for _, o := range small {
		thresh[o] = rmatFracOne
	}
	return thresh, alias, nib
}

// rmatStats is one Run's sharding telemetry, surfaced via RunNote.
type rmatStats struct {
	rounds int
	draws  int64
	edges  int64
}

// RunNote implements Noter: a one-line telemetry note about the last
// Run for the engine's timing report.
func (r *RMAT) RunNote() string {
	st := r.lastStats
	if st.edges == 0 {
		return ""
	}
	return fmt.Sprintf("rmat %d rounds, %.2f draws/edge", st.rounds, float64(st.draws)/float64(st.edges))
}

// runSharded generates m = EdgeFactor·n edges in sharded rounds.
func (r *RMAT) runSharded(n int64) (*table.EdgeTable, error) {
	scale := scaleFor(n)
	m := r.EdgeFactor * n
	et := table.NewEdgeTable("rmat", m)
	base := xrand.NewStream(r.Seed).DeriveStream("rmat.shard")
	var dd *edgeDedup
	if !r.KeepDuplicates {
		// No capacity hint: the first round's sorted winners become the
		// accepted set (resolveRound adopts them), already sized.
		dd = new(edgeDedup)
	}
	var al *rmatAlias
	if r.Noise == 0 {
		al = newRMATAlias(r.A, r.B, r.C, r.D, scale)
	}

	var slab []uint64
	dry := 0
	r.lastStats = rmatStats{}
	for round := 0; et.Len() < m; round++ {
		if round >= rmatMaxRounds {
			return nil, fmt.Errorf("sgen: RMAT stalled after %d rounds (%d/%d edges); the requested density is unreachable", round, et.Len(), m)
		}
		need := m - et.Len()
		draws := rmatRoundDraws(round, need)
		before := et.Len()
		if cap(slab) < int(draws) {
			slab = make([]uint64, draws)
		}
		slab = slab[:draws]
		r.fillSlab(base, round, slab, scale, al)
		if r.KeepDuplicates {
			rmatAppendInRange(et, slab, n, need)
		} else {
			slab = dd.appendDeduped(et, slab, n, need)
		}
		r.lastStats.rounds = round + 1
		r.lastStats.draws += draws
		if et.Len() == before {
			if dry++; dry >= rmatMaxDryRounds {
				return nil, fmt.Errorf("sgen: RMAT made no progress for %d rounds (%d/%d edges); the requested density is unreachable", dry, et.Len(), m)
			}
		} else {
			dry = 0
		}
	}
	r.lastStats.edges = m
	return et, nil
}

// rmatRoundDraws sizes a round's slab: the first round oversamples the
// full target slightly (duplicates and out-of-range endpoints are rare
// at Graph500 defaults), refill rounds double the missing count
// (failures concentrate on hub collisions and cycle-walked ids, so the
// per-candidate failure odds are higher the second time around). The
// budget is a pure function of (round, need).
func rmatRoundDraws(round int, need int64) int64 {
	var draws int64
	if round == 0 {
		draws = need + need/8 + 256
	} else {
		draws = 2*need + 256
	}
	if draws > rmatMaxRoundDraws {
		draws = rmatMaxRoundDraws
	}
	return draws
}

// shardStream derives the one independent sequential stream of a
// (round, shard) pair. Rounds stay below rmatMaxRounds and shards
// below 2^20 per round, so the derivation key never collides.
func shardStream(base xrand.Stream, round, s int) xrand.Seq {
	return *xrand.NewSeq(base.DeriveN(uint64(round)<<20 | uint64(s)).Seed())
}

// fillSlab fills one round's candidate slab shard by shard. Shard s
// owns the slab range [s·shardSize, (s+1)·shardSize).
func (r *RMAT) fillSlab(base xrand.Stream, round int, slab []uint64, scale uint, al *rmatAlias) {
	for s, lo := 0, 0; lo < len(slab); s, lo = s+1, lo+rmatShardSize {
		q := shardStream(base, round, s)
		shard := slab[lo:min(lo+rmatShardSize, len(slab))]
		if al != nil {
			drawShardAlias(&q, shard, al)
		} else {
			r.drawShard(&q, shard, scale)
		}
	}
}

// drawShardAlias fills one shard's slab range with tail<<32|head
// candidates via the alias tables: one RNG draw per rmatAliasLevels
// levels, the remainder block (if any) first so full blocks run back
// to back. The alias select is branchless: at Graph500 skew both
// outcomes are near coin flips, and a mispredict costs more than the
// mask arithmetic.
func drawShardAlias(q *xrand.Seq, slab []uint64, al *rmatAlias) {
	for i := range slab {
		var t, h uint64
		if al.rem > 0 {
			v := q.U64()
			idx := v >> (64 - 2*al.rem)
			frac := (v << (2 * al.rem)) >> 8
			diff := int64(frac) - int64(al.remThresh[idx])
			mask := uint64(diff >> 63)
			o := int(idx&mask | uint64(al.remAlias[idx])&^mask)
			nb := al.remNib[o]
			t = uint64(nb >> 4)
			h = uint64(nb & 0xf)
		}
		for b := 0; b < al.blocks; b++ {
			v := q.U64()
			idx := v >> 56
			frac := v & (rmatFracOne - 1)
			diff := int64(frac) - int64(al.thresh[idx])
			mask := uint64(diff >> 63)
			o := int(idx&mask | uint64(al.alias[idx])&^mask)
			nb := al.nib[o]
			t = t<<4 | uint64(nb>>4)
			h = h<<4 | uint64(nb&0xf)
		}
		slab[i] = t<<32 | h
	}
}

// drawShard fills one shard's slab range with per-level
// quadrant-recursion draws — the Noise path, where the quadrant
// probabilities change at every level and the alias tables cannot
// apply.
func (r *RMAT) drawShard(q *xrand.Seq, slab []uint64, scale uint) {
	a, b, c := r.A, r.B, r.C
	for i := range slab {
		var t, h uint64
		for level := scale; level > 0; level-- {
			u := q.Float64()
			// Symmetric noise keeps expectation fixed.
			// float64(…) rounds the draw and each product: no fused multiply-add.
			nz := (float64(q.Float64()) - 0.5) * 2 * r.Noise
			al := a + float64(a*nz)
			bl := b - float64(b*nz/2)
			cl := c - float64(c*nz/2)
			bit := uint64(1) << (level - 1)
			switch {
			case u < al:
				// quadrant (0,0): nothing to add
			case u < al+bl:
				h |= bit
			case u < al+bl+cl:
				t |= bit
			default:
				t |= bit
				h |= bit
			}
		}
		slab[i] = t<<32 | h
	}
}

// rmatAppendInRange resolves a KeepDuplicates round: candidates append
// in slab order, skipping only endpoints outside [0, n) (the
// cycle-walk for non-power-of-two n), up to limit edges.
func rmatAppendInRange(et *table.EdgeTable, slab []uint64, n, limit int64) {
	for _, k := range slab {
		if limit == 0 {
			return
		}
		t, h := int64(k>>32), int64(k&0xffffffff)
		if t >= n || h >= n {
			continue
		}
		et.Add(t, h)
		limit--
	}
}

// appendDeduped resolves one deduped round over a slab of tail<<32|head
// candidates: self-loops and endpoints outside [0, n) are filtered out
// in place, the rest canonicalised to (min<<32|max) and handed to
// resolveRound. The slab is consumed, like resolveRound's keys; the
// buffer returned — nil once the slab has become the accepted set — is
// the one to fill next round.
func (d *edgeDedup) appendDeduped(et *table.EdgeTable, slab []uint64, n, limit int64) []uint64 {
	w := 0
	for _, k := range slab {
		lo, hi := min(k>>32, k&0xffffffff), max(k>>32, k&0xffffffff)
		if lo == hi || hi >= uint64(n) {
			continue
		}
		slab[w] = lo<<32 | hi
		w++
	}
	return d.resolveRound(et, slab[:w], limit)
}

// resolveRound resolves one round's candidate keys: the distinct keys
// not yet in the accepted set — duplicates within the round or against
// any earlier round lose — append to et in sorted key order, at most
// limit of them, and merge into the accepted set so later rounds reject
// them. Sorted-order emission is what makes the round cheap: the radix
// pass needs no index payload and no per-candidate winner flags, and
// any fixed deterministic order is as good as slab order for the
// determinism contract.
//
// A round that exhausts its limit is the last: the caller's table is
// full and no later round reads the accepted set, so the round returns
// as soon as the limit is reached and leaves the set as it was —
// merging winners nobody will look up would copy the whole set.
//
// A round works in keys alone: it is sorted in place (sortKeysInPlace,
// whose only scratch is a leaf-sized buffer) and its winners are
// compacted at its front. keys is consumed. The first round's winners —
// millions of them — become the accepted set where they lie and nil is
// returned, so the caller allocates its next (smaller) slab; later
// rounds merge their (few) winners into that set and hand keys back.
// Either way nothing the caller gets aliases the accepted set.
func (d *edgeDedup) resolveRound(et *table.EdgeTable, keys []uint64, limit int64) []uint64 {
	if limit <= 0 {
		return keys
	}
	d.sortKeysInPlace(keys, sortLeafKeys)

	// Runs of equal keys against the accepted set (two-pointer: both
	// sorted); the first fresh key of each run wins.
	ai, w := 0, 0
	for i := 0; i < len(keys); {
		key := keys[i]
		j := i + 1
		for j < len(keys) && keys[j] == key {
			j++
		}
		i = j
		for ai < len(d.accepted) && d.accepted[ai] < key {
			ai++
		}
		if ai < len(d.accepted) && d.accepted[ai] == key {
			continue
		}
		et.Add(int64(key>>32), int64(key&0xffffffff))
		if limit--; limit == 0 {
			return keys
		}
		keys[w] = key
		w++
	}
	if len(d.accepted) == 0 && w > 0 {
		d.accepted = keys[:w]
		return nil
	}
	d.mergeKeys(keys[:w])
	return keys
}
