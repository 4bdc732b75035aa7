package sgen

import (
	"math/bits"

	"datasynth/internal/table"
)

// edgeDedup rejects duplicate undirected edges during configuration-
// model wiring. The old implementation probed a map[uint64]struct{} on
// every candidate pair — a hash plus amortised allocation on the
// hottest loop of LFR. This one is allocation-free at steady state: a
// round's candidates are packed into (min<<32|max) keys, radix-sorted
// together with their stream positions, compacted against the sorted
// set of already-accepted keys, and the winners merged back in. All
// buffers are reused across rounds and communities.
//
// Semantics are exactly those of the map: within a round the earliest
// occurrence of a key wins, every later occurrence fails, and a key
// accepted in any earlier round (since the last reset) always fails.
type edgeDedup struct {
	accepted []uint64 // sorted keys of all accepted edges
	keys     []uint64 // scratch: one round's valid candidate keys, stream order
	idx      []int32  // scratch: parallel pair indices
	tmpK     []uint64 // scratch: sortByKey's radix ping-pong (pairing rounds)
	tmpI     []int32  // scratch: sortByKey's radix ping-pong (pairing rounds)
	leaf     []uint64 // scratch: sortKeysInPlace's leaf buffer, at most sortLeafKeys long
	count    []int32  // scratch: radix digit counts (1<<16)
	win      []bool   // scratch: per-pair winner flag
	newKeys  []uint64 // scratch: winner keys of a pairing round (sorted)
	merged   []uint64 // scratch: merge target for accepted ∪ winners

	// Direct-addressed dedup for phases with a small key universe
	// (intra-community wiring: at most size² local pair keys). A
	// generation stamp makes resets O(1) instead of clearing the table.
	stamp []int32
	gen   int32
}

// reset clears the accepted set (buffers are kept). Callers reset
// between wiring phases whose key spaces cannot collide — e.g. the
// per-community intra phases (both endpoints inside one community) and
// the inter phase (endpoints in different communities) — which keeps
// every merge proportional to the phase's own edge count instead of
// the whole graph's.
func (d *edgeDedup) reset() { d.accepted = d.accepted[:0] }

// resetDirect prepares the stamp table for a phase whose pair keys lie
// in [0, universe).
func (d *edgeDedup) resetDirect(universe int) {
	if cap(d.stamp) < universe {
		d.stamp = make([]int32, universe)
		d.gen = 0
	}
	d.stamp = d.stamp[:universe]
	d.gen++
}

// seenDirect records key and reports whether it was already seen since
// the last resetDirect.
func (d *edgeDedup) seenDirect(key int64) bool {
	if d.stamp[key] == d.gen {
		return true
	}
	d.stamp[key] = d.gen
	return false
}

// edgeSet is the set of undirected edges a simple-graph generator has
// drawn, keyed by packEdgeKey.
type edgeSet map[uint64]struct{}

// add records the edge {a, b} and reports whether it is new: a
// self-loop, or a pair already added in either orientation, is refused.
func (s edgeSet) add(a, b int64) bool {
	if a == b {
		return false
	}
	key := packEdgeKey(a, b)
	if _, dup := s[key]; dup {
		return false
	}
	s[key] = struct{}{}
	return true
}

func packEdgeKey(a, b int64) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairRound resolves one pairing round: adjacent entries of pending
// form candidate pairs; winning pairs are appended to et in stream
// order and the failing stubs are compacted in place and returned for
// the next round. ok, when non-nil, is the extra acceptance predicate.
func (d *edgeDedup) pairRound(et *table.EdgeTable, pending []int64, ok func(a, b int64) bool) []int64 {
	nPairs := len(pending) / 2
	// Every buffer is sized to the round's pair count, the most it can
	// hold: a phase's first round allocates them, later rounds are
	// smaller. The first round's winners become the accepted set (see
	// below), so its capacity holds every later winner and the merges
	// run in place.
	if cap(d.win) < nPairs {
		d.win = make([]bool, nPairs)
	}
	if cap(d.keys) < nPairs {
		d.keys = make([]uint64, 0, nPairs)
		d.idx = make([]int32, 0, nPairs)
	}
	if cap(d.newKeys) < nPairs {
		d.newKeys = make([]uint64, 0, nPairs)
	}
	win := d.win[:nPairs]
	clear(win)

	// Valid candidates only; self-loops and ok-rejected pairs never win
	// and go straight back to the retry pool during compaction.
	d.keys = d.keys[:0]
	d.idx = d.idx[:0]
	for p := 0; p < nPairs; p++ {
		a, b := pending[2*p], pending[2*p+1]
		if a == b || (ok != nil && !ok(a, b)) {
			continue
		}
		d.keys = append(d.keys, packEdgeKey(a, b))
		d.idx = append(d.idx, int32(p))
	}
	keys, idx := d.sortByKey(d.keys, d.idx)

	// Scan runs of equal keys against the accepted set (two-pointer:
	// both are sorted). The earliest stream position of a fresh key wins
	// its pair — radix stability keeps equal keys in stream order.
	d.newKeys = d.newKeys[:0]
	ai := 0
	for i := 0; i < len(keys); {
		key := keys[i]
		j := i + 1
		for j < len(keys) && keys[j] == key {
			j++
		}
		for ai < len(d.accepted) && d.accepted[ai] < key {
			ai++
		}
		if ai == len(d.accepted) || d.accepted[ai] != key {
			win[idx[i]] = true
			d.newKeys = append(d.newKeys, key)
		}
		i = j
	}

	// Emit winners and compact the failing stubs, both in stream order.
	w := 0
	for p := 0; p < nPairs; p++ {
		a, b := pending[2*p], pending[2*p+1]
		if win[p] {
			if a > b {
				a, b = b, a
			}
			et.Add(a, b)
			continue
		}
		pending[w], pending[w+1] = a, b
		w += 2
	}

	if len(d.accepted) == 0 {
		// A phase's first round: the buffers just swap roles.
		d.accepted, d.newKeys = d.newKeys, d.accepted
	} else {
		d.mergeKeys(d.newKeys)
	}
	return pending[:w]
}

// mergeKeys merges a round's winner keys (sorted: they were collected
// in key order) into the non-empty accepted set: in place, backward
// into the spare capacity, when it fits; via the scratch buffer
// otherwise. newKeys is only read.
func (d *edgeDedup) mergeKeys(newKeys []uint64) {
	if len(newKeys) == 0 {
		return
	}
	na, nn := len(d.accepted), len(newKeys)
	need := na + nn
	if cap(d.accepted) >= need {
		d.accepted = d.accepted[:need]
		i, w := na-1, need-1
		for j := nn - 1; j >= 0; {
			if i >= 0 && d.accepted[i] > newKeys[j] {
				d.accepted[w] = d.accepted[i]
				i--
			} else {
				d.accepted[w] = newKeys[j]
				j--
			}
			w--
		}
		return
	}
	if cap(d.merged) < need {
		d.merged = make([]uint64, 0, need+need/2)
	}
	m := d.merged[:0]
	i, j := 0, 0
	for i < len(d.accepted) && j < len(newKeys) {
		if d.accepted[i] < newKeys[j] {
			m = append(m, d.accepted[i])
			i++
		} else {
			m = append(m, newKeys[j])
			j++
		}
	}
	m = append(m, d.accepted[i:]...)
	m = append(m, newKeys[j:]...)
	d.accepted, d.merged = m, d.accepted
}

const (
	// flagBits is the digit width of sortKeysInPlace's American-flag
	// passes: 128 buckets, whose counts and cursors stay in L1.
	flagBits = 7
	// sortLeafKeys is the bucket size at and below which sortKeysInPlace
	// hands a bucket to the LSD kernel. The kernel's scratch, 2 MiB at
	// most, is the only buffer the sort allocates.
	sortLeafKeys = 1 << 18
)

// sortKeysInPlace sorts a bare key slice in place — the path for
// rounds whose consumers don't need stream positions (sharded RMAT
// emits winners in key order), so no stability is needed and the sorted
// sequence is the same as any sort's. A slice of more than leaf keys
// takes an American-flag pass (McIlroy, Bostic & McIlroy, "Engineering
// Radix Sort", Computing Systems 1993) on its top flagBits live bits and
// recurses into each bucket; a bucket of at most leaf keys is sorted by
// the LSD kernel through a leaf-sized scratch. Buffer use is therefore
// keys plus min(len(keys), leaf) words, where an LSD sort of the whole
// slice needs a second slice as long.
func (d *edgeDedup) sortKeysInPlace(keys []uint64, leaf int) {
	if n := min(len(keys), leaf); cap(d.leaf) < n {
		d.leaf = make([]uint64, n)
	}
	d.flagSort(keys, liveBits(keys), leaf)
}

// liveBits returns the bit positions on which keys differ.
func liveBits(keys []uint64) uint64 {
	orAll, andAll := uint64(0), ^uint64(0)
	for _, k := range keys {
		orAll |= k
		andAll &= k
	}
	return orAll ^ andAll
}

// flagSort sorts keys, which agree on every bit outside live.
func (d *edgeDedup) flagSort(keys []uint64, live uint64, leaf int) {
	if live == 0 || len(keys) < 2 {
		return
	}
	if len(keys) <= leaf {
		scratch := d.leaf[:len(keys)]
		if sorted := d.sortKeysLSD(keys, scratch); &sorted[0] == &scratch[0] {
			copy(keys, scratch)
		}
		return
	}
	// The digit is the window of at most flagBits bit positions that
	// ends at the top live bit, trimmed to start at a live bit.
	top := 63 - bits.LeadingZeros64(live)
	shift := max(top+1-flagBits, 0)
	shift += bits.TrailingZeros64(live >> shift)
	mask := uint64(1)<<(top+1-shift) - 1

	var next, end [1 << flagBits]int
	for _, k := range keys {
		end[k>>shift&mask]++
	}
	sum := 0
	for b := range end {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	// Bucket by bucket, carry each misplaced key to its bucket's next
	// free slot and pick up the key found there, until the carried key
	// belongs where the cycle started.
	for b := range end {
		for i := next[b]; i < end[b]; i = next[b] {
			k := keys[i]
			for db := k >> shift & mask; db != uint64(b); db = k >> shift & mask {
				keys[next[db]], k = k, keys[next[db]]
				next[db]++
			}
			keys[i] = k
			next[b]++
		}
	}
	rest, lo := live&^(mask<<shift), 0
	for _, hi := range end {
		d.flagSort(keys[lo:hi], rest, leaf)
		lo = hi
	}
}

// sortKeysLSD sorts keys by LSD radix passes between keys and scratch
// (as long as keys) and returns whichever holds the result: the leaf
// kernel of sortKeysInPlace.
//
// Only the bits on which the keys differ (orAll^andAll) are sorted, and
// a pass's digit is gathered from up to two windows of them, so the
// dead bits between a packed key's two ids cost nothing: scale-18
// (min<<32|max) keys have 36 live bits in two runs of 18 and, before a
// flag pass has split them, sort in three 12-bit passes — bits 0–11,
// 12–17 with 32–37, 38–49 — where fixed 16-bit digits took four, two
// of them for 2 live bits each.
// Windows are taken low to high and a digit keeps their order, so the
// passes sort by the live bits in significance order, which is the
// order of the keys.
func (d *edgeDedup) sortKeysLSD(keys, scratch []uint64) []uint64 {
	n := len(keys)
	src, dst := keys, scratch
	live := liveBits(keys)
	if live == 0 {
		return src // n copies of one key
	}
	if d.count == nil {
		d.count = make([]int32, 1<<16)
	}
	// Digit width adapts to the round size so tiny rounds don't pay for
	// clearing a 64k count table; the live bits are then split evenly
	// over the passes that width needs.
	maxBits := 8
	if n >= 1<<12 {
		maxBits = 16
	}
	nLive := bits.OnesCount64(live)
	passes := (nLive + maxBits - 1) / maxBits
	// window takes the next window of at most w bit positions off live:
	// it starts at the lowest live bit and ends at a live bit.
	window := func(w int) (shift, take int) {
		shift = bits.TrailingZeros64(live)
		take = bits.Len64(live >> shift & (1<<w - 1))
		live &^= (1<<take - 1) << shift
		return shift, take
	}
	for width := (nLive + passes - 1) / passes; live != 0; {
		shLo, takeLo := window(width)
		maskLo := uint64(1)<<takeLo - 1
		// The second window's bits sit above the first's in the digit.
		var shHi, takeHi int
		if takeLo < width && live != 0 {
			shHi, takeHi = window(width - takeLo)
			shHi -= takeLo
		}
		maskHi := (uint64(1)<<takeHi - 1) << takeLo

		count := d.count[:1<<(takeLo+takeHi)]
		clear(count)
		for _, k := range src {
			count[k>>shLo&maskLo|k>>shHi&maskHi]++
		}
		var sum int32
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			digit := k>>shLo&maskLo | k>>shHi&maskHi
			p := count[digit]
			count[digit] = p + 1
			dst[p] = k
		}
		src, dst = dst, src
	}
	return src
}

// sortByKey stable-sorts (keys, idx) by key with an LSD radix sort,
// ping-ponging between the input slices and the scratch buffers; it
// returns whichever pair holds the result. Digit width adapts to the
// round size so tiny community rounds don't pay for clearing a 64k
// count table, and passes stop at the highest set byte of the largest
// key.
func (d *edgeDedup) sortByKey(keys []uint64, idx []int32) ([]uint64, []int32) {
	n := len(keys)
	if n < 2 {
		return keys, idx
	}
	if cap(d.tmpK) < n {
		d.tmpK = make([]uint64, n)
		d.tmpI = make([]int32, n)
	}
	if d.count == nil {
		d.count = make([]int32, 1<<16)
	}
	var digitBits uint = 8
	if n >= 1<<12 {
		digitBits = 16
	}
	radix := uint64(1)<<digitBits - 1
	var maxKey uint64
	for _, k := range keys {
		if k > maxKey {
			maxKey = k
		}
	}
	src, dst := keys, d.tmpK[:n]
	srcI, dstI := idx, d.tmpI[:n]
	for shift := uint(0); ; shift += digitBits {
		count := d.count[:radix+1]
		clear(count)
		for _, k := range src {
			count[(k>>shift)&radix]++
		}
		var sum int32
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range src {
			digit := (k >> shift) & radix
			p := count[digit]
			count[digit] = p + 1
			dst[p] = k
			dstI[p] = srcI[i]
		}
		src, dst = dst, src
		srcI, dstI = dstI, srcI
		if shift+digitBits >= 64 || maxKey>>(shift+digitBits) == 0 {
			break
		}
	}
	return src, srcI
}
