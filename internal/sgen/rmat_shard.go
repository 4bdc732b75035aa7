package sgen

import (
	"fmt"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Sharded RMAT generation. The serial generator drew edges one at a
// time through a per-level addressable-RNG loop and deduped through a
// map[uint64]struct{} — the last fully serial hot path in the
// codebase. This implementation applies the LFR sharding contract to
// RMAT:
//
//   - Edge draws happen in rounds. A round partitions its draw budget
//     into fixed-size shards; shard s of round r fills the disjoint
//     slab range [s·shardSize, (s+1)·shardSize) with quadrant-recursion
//     draws from its own RNG stream, derived as
//     NewStream(seed).DeriveStream("rmat.shard").DeriveN(r<<20|s).
//     The slab content is a pure function of (seed, round, shard).
//   - After the slab is full, one sequential pass resolves it in slab
//     order: out-of-range endpoints (cycle-walk for non-power-of-two n)
//     and — unless KeepDuplicates — self-loops and duplicate edges are
//     rejected through the LFR-style radix sort-and-compact dedup, and
//     the survivors append to the edge table in slab order.
//   - Rounds refill deterministically: the next round's draw budget is
//     a function of how many edges are still missing, which is itself
//     deterministic.
//
// Randomness per draw is one sequential splitmix64 value per recursion
// level (xrand.Seq: one mix64 per draw), versus two mix rounds plus
// index arithmetic for the old addressable path; the Noise branch is
// resolved once per shard instead of once per level.

const (
	// rmatShardSize is the draw count of one shard, the unit that owns
	// an RNG stream — part of the byte contract. Large enough that the
	// per-shard stream derivation is noise.
	rmatShardSize = 1 << 16
	// rmatMaxRoundDraws caps one round's slab so slab memory stays
	// bounded (one packed-key slab of at most 4M entries, 32 MiB, sorted
	// in place; the Noise path adds two int64 draw slices); larger
	// targets simply take more rounds.
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
		thresh[s] = uint64(scaled[s] * float64(rmatFracOne))
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

	// The hot configuration — noiseless with dedup — draws straight
	// into a single packed-key slab; the other combinations go through
	// the two-array (tail, head) slab.
	packed := al != nil && !r.KeepDuplicates
	var slab []uint64
	var slabT, slabH []int64
	dry := 0
	r.lastStats = rmatStats{}
	for round := 0; et.Len() < m; round++ {
		if round >= rmatMaxRounds {
			return nil, fmt.Errorf("sgen: RMAT stalled after %d rounds (%d/%d edges); the requested density is unreachable", round, et.Len(), m)
		}
		need := m - et.Len()
		draws := rmatRoundDraws(round, need)
		before := et.Len()
		if packed {
			if cap(slab) < int(draws) {
				slab = make([]uint64, draws)
			}
			slab = slab[:draws]
			r.fillSlabPacked(base, round, slab, al)
			slab = dd.appendDedupedPacked(et, slab, n, need)
		} else {
			if cap(slabT) < int(draws) {
				slabT = make([]int64, draws)
				slabH = make([]int64, draws)
			}
			slabT, slabH = slabT[:draws], slabH[:draws]
			r.fillSlab(base, round, slabT, slabH, scale, al)
			if r.KeepDuplicates {
				rmatAppendInRange(et, slabT, slabH, n, need)
			} else {
				dd.appendDeduped(et, slabT, slabH, n, need)
			}
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

// shardLoop runs fill(s) for every shard of a draws-sized round. Shard
// s owns the slab range [s·shardSize, (s+1)·shardSize).
func shardLoop(draws int64, fill func(s int, lo, hi int64)) {
	for s, lo := 0, int64(0); lo < draws; s, lo = s+1, lo+rmatShardSize {
		fill(s, lo, min(lo+rmatShardSize, draws))
	}
}

// fillSlab fills one round's two-array slab (Noise or KeepDuplicates
// configurations).
func (r *RMAT) fillSlab(base xrand.Stream, round int, slabT, slabH []int64, scale uint, al *rmatAlias) {
	shardLoop(int64(len(slabT)), func(s int, lo, hi int64) {
		q := shardStream(base, round, s)
		if al != nil {
			drawShardAlias(&q, slabT[lo:hi], slabH[lo:hi], al)
		} else {
			r.drawShard(&q, slabT[lo:hi], slabH[lo:hi], scale)
		}
	})
}

// fillSlabPacked fills one round's packed-key slab (the noiseless
// dedup fast path).
func (r *RMAT) fillSlabPacked(base xrand.Stream, round int, slab []uint64, al *rmatAlias) {
	shardLoop(int64(len(slab)), func(s int, lo, hi int64) {
		q := shardStream(base, round, s)
		drawShardAliasPacked(&q, slab[lo:hi], al)
	})
}

// drawShardAlias fills one shard's slab range via the alias tables:
// one RNG draw per rmatAliasLevels levels, the remainder block (if
// any) first so full blocks run back to back.
func drawShardAlias(q *xrand.Seq, tails, heads []int64, al *rmatAlias) {
	for i := range tails {
		var t, h int64
		if al.rem > 0 {
			v := q.U64()
			idx := v >> (64 - 2*al.rem)
			frac := (v << (2 * al.rem)) >> 8
			o := int(al.remAlias[idx])
			if frac < al.remThresh[idx] {
				o = int(idx)
			}
			nb := al.remNib[o]
			t = int64(nb >> 4)
			h = int64(nb & 0xf)
		}
		for b := 0; b < al.blocks; b++ {
			v := q.U64()
			idx := v >> 56
			frac := v & (rmatFracOne - 1)
			o := int(al.alias[idx])
			if frac < al.thresh[idx] {
				o = int(idx)
			}
			nb := al.nib[o]
			t = t<<4 | int64(nb>>4)
			h = h<<4 | int64(nb&0xf)
		}
		tails[i], heads[i] = t, h
	}
}

// drawShardAliasPacked is drawShardAlias emitting packed
// (min<<32|max) candidate keys, the exact shape the dedup pass
// consumes — self-loops stay detectable as min == max. The alias
// select and the endpoint swap are branchless: at Graph500 skew both
// outcomes are near coin flips, and a mispredict costs more than the
// mask arithmetic.
func drawShardAliasPacked(q *xrand.Seq, slab []uint64, al *rmatAlias) {
	for i := range slab {
		var t, h int64
		if al.rem > 0 {
			v := q.U64()
			idx := v >> (64 - 2*al.rem)
			frac := (v << (2 * al.rem)) >> 8
			diff := int64(frac) - int64(al.remThresh[idx])
			mask := uint64(diff >> 63)
			o := int(idx&mask | uint64(al.remAlias[idx])&^mask)
			nb := al.remNib[o]
			t = int64(nb >> 4)
			h = int64(nb & 0xf)
		}
		for b := 0; b < al.blocks; b++ {
			v := q.U64()
			idx := v >> 56
			frac := v & (rmatFracOne - 1)
			diff := int64(frac) - int64(al.thresh[idx])
			mask := uint64(diff >> 63)
			o := int(idx&mask | uint64(al.alias[idx])&^mask)
			nb := al.nib[o]
			t = t<<4 | int64(nb>>4)
			h = h<<4 | int64(nb&0xf)
		}
		lo, hi := t, h
		if lo > hi {
			lo, hi = hi, lo
		}
		slab[i] = uint64(lo)<<32 | uint64(hi)
	}
}

// drawShard fills one shard's slab range with per-level
// quadrant-recursion draws — the Noise path, where the quadrant
// probabilities change at every level and the alias tables cannot
// apply. The noiseless branch is kept as the reference implementation
// the alias path is property-tested against.
func (r *RMAT) drawShard(q *xrand.Seq, tails, heads []int64, scale uint) {
	if r.Noise > 0 {
		a, b, c := r.A, r.B, r.C
		for i := range tails {
			var t, h int64
			for level := scale; level > 0; level-- {
				u := q.Float64()
				// Symmetric noise keeps expectation fixed.
				nz := (q.Float64() - 0.5) * 2 * r.Noise
				al := a + a*nz
				bl := b - b*nz/2
				cl := c - c*nz/2
				bit := int64(1) << (level - 1)
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
			tails[i], heads[i] = t, h
		}
		return
	}
	a, ab, abc := r.A, r.A+r.B, r.A+r.B+r.C
	for i := range tails {
		var t, h int64
		for level := scale; level > 0; level-- {
			u := q.Float64()
			bit := int64(1) << (level - 1)
			switch {
			case u < a:
				// quadrant (0,0): nothing to add
			case u < ab:
				h |= bit
			case u < abc:
				t |= bit
			default:
				t |= bit
				h |= bit
			}
		}
		tails[i], heads[i] = t, h
	}
}

// rmatAppendInRange resolves a KeepDuplicates round: candidates append
// in slab order, skipping only endpoints outside [0, n) (the
// cycle-walk for non-power-of-two n), up to limit edges.
func rmatAppendInRange(et *table.EdgeTable, tails, heads []int64, n, limit int64) {
	for i := range tails {
		if limit == 0 {
			return
		}
		t, h := tails[i], heads[i]
		if t >= n || h >= n {
			continue
		}
		et.Add(t, h)
		limit--
	}
}

// appendDeduped resolves one deduped round: candidates
// (tails[i], heads[i]) with self-loops and endpoints outside [0, n)
// dropped are canonicalised to (min, max) and handed to resolveRound.
func (d *edgeDedup) appendDeduped(et *table.EdgeTable, tails, heads []int64, n, limit int64) {
	nCand := len(tails)
	// Sized up front: RMAT rounds are millions of candidates, and
	// append doubling from a cold buffer would copy the whole round
	// twice.
	if cap(d.keys) < nCand {
		d.keys = make([]uint64, 0, nCand)
	}
	keys := d.keys[:0]
	for i := 0; i < nCand; i++ {
		t, h := tails[i], heads[i]
		if t == h || t >= n || h >= n {
			continue
		}
		keys = append(keys, packEdgeKey(t, h))
	}
	d.keys = d.resolveRound(et, keys, limit)
}

// appendDedupedPacked is appendDeduped over an already packed
// candidate slab (drawShardAliasPacked's output): self-loops
// (min == max) and out-of-range keys are filtered out in place and the
// rest resolved as usual. The slab is consumed, like resolveRound's
// keys; the buffer returned — nil once the slab has become the accepted
// set — is the one to fill next round.
func (d *edgeDedup) appendDedupedPacked(et *table.EdgeTable, slab []uint64, n, limit int64) []uint64 {
	w := 0
	for _, k := range slab {
		max := k & 0xffffffff
		if k>>32 == max || int64(max) >= n {
			continue
		}
		slab[w] = k
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
