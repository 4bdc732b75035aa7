package match

import (
	"fmt"

	"datasynth/internal/graph"
	"datasynth/internal/par"
	"datasynth/internal/xrand"
)

// Windowed-parallel SBM-Part. The serial streaming partitioner places
// one node at a time; the expensive part of each placement is the
// neighbourhood scan (O(deg(v)) over the CSR adjacency), while the
// placement decision itself is O(k·|touched|). This mode processes the
// stream in fixed-size windows:
//
//  1. Scan phase (parallel): every node of the window is scanned
//     concurrently against a frozen snapshot of the partial assignment
//     — the state as of the window start. Assignments are append-only
//     (a placed node is never moved within a pass), so each neighbour
//     is classified either as *settled* (its group is already final)
//     or *pending* (unassigned at the snapshot; it can only become
//     assigned by an earlier commit of this same window). Settled
//     neighbours are reduced to per-group counts; pending neighbours
//     are recorded verbatim with their scan positions.
//  2. Commit phase (sequential, stream order): each node's snapshot
//     counts are patched with the pending neighbours that did get
//     placed earlier in the window, which reconstructs *exactly* the
//     neighbour-group counts the serial stream would observe. Because
//     the serial code visits groups in first-occurrence order — and
//     floating-point accumulation makes that order significant — the
//     touched list is re-sorted by each group's first scan position
//     before scoring. The placement decision then runs against the
//     live matrix, capacities and placed-edge count: the same inputs,
//     summed in the same order, as the serial code.
//
// The committed partition is therefore byte-identical to the serial
// stream at every window size and worker count; only the wall-clock
// cost of the neighbourhood scans is amortised across cores
// (restreamed-LDG style speculation, with the commit loop as the
// sequencer).
func (p *SBMPart) partitionWindowed(g *graph.Graph, order []int64, window int) ([]int64, []float64, error) {
	n := g.N()
	k := p.K
	// A window can never usefully exceed the stream; clamping keeps the
	// per-window scratch proportional to the graph even when a caller
	// passes an oversized knob ("whole stream" = window >= n).
	if int64(window) > n {
		window = int(n)
		if window < 2 {
			window = 2
		}
	}

	targetP := p.targetMatrix()
	m := float64(g.M())
	cur := make([]float64, k*k)
	var placedEdges float64

	assign := make([]int64, n)
	for i := range assign {
		assign[i] = Unassigned
	}
	used := make([]int64, k)
	cnt := make([]int64, k)
	pos := make([]int32, k) // first scan position per touched group
	touched := make([]int, 0, k)
	seenOrder := make([]bool, n)
	rnd := xrand.NewStream(p.Seed).DeriveStream("sbm-unconstrained")

	workers := par.EffectiveWorkers(p.Workers)
	if workers > window {
		workers = window
	}

	// Per-window scratch, reused across windows. Each node i of the
	// window owns the arena range [scanOff[i], scanOff[i+1]) — disjoint
	// by construction, so scan workers never write the same cell.
	scanOff := make([]int64, window+1)
	preLen := make([]int32, window)  // settled (group,count,pos) triples per node
	pendLen := make([]int32, window) // pending neighbours per node
	var preGroup []int32             // arena: settled group ids
	var preCount []int32             // arena: settled per-group counts
	var prePos []int32               // arena: settled first scan positions
	var pendBuf []int64              // arena: pending neighbour ids
	var pendPos []int32              // arena: pending scan positions

	for w0 := int64(0); w0 < n; w0 += int64(window) {
		w1 := w0 + int64(window)
		if w1 > n {
			w1 = n
		}
		wn := int(w1 - w0)
		win := order[w0:w1]

		// Stream-order validation, exactly as the serial loop performs it.
		for _, v := range win {
			if v < 0 || v >= n || seenOrder[v] {
				return nil, nil, fmt.Errorf("match: order is not a permutation (node %d)", v)
			}
			seenOrder[v] = true
		}

		scanOff[0] = 0
		for i := 0; i < wn; i++ {
			scanOff[i+1] = scanOff[i] + g.Degree(win[i])
		}
		if need := scanOff[wn]; int64(cap(pendBuf)) < need {
			pendBuf = make([]int64, need)
			pendPos = make([]int32, need)
			preGroup = make([]int32, need)
			preCount = make([]int32, need)
			prePos = make([]int32, need)
		}

		// Scan phase: static contiguous chunks; every worker classifies
		// its nodes' neighbourhoods against the frozen assignment.
		scan := func(lo, hi int, cnt []int64, posLoc []int32, tl []int32) {
			for i := lo; i < hi; i++ {
				v := win[i]
				base := scanOff[i]
				tl = tl[:0]
				var npend int64
				for si, u := range g.Neighbors(v) {
					if u == v {
						continue
					}
					if a := assign[u]; a != Unassigned {
						if cnt[a] == 0 {
							posLoc[a] = int32(si)
							tl = append(tl, int32(a))
						}
						cnt[a]++
					} else {
						pendBuf[base+npend] = u
						pendPos[base+npend] = int32(si)
						npend++
					}
				}
				for j, a := range tl {
					preGroup[base+int64(j)] = a
					preCount[base+int64(j)] = int32(cnt[a])
					prePos[base+int64(j)] = posLoc[a]
					cnt[a] = 0
				}
				preLen[i] = int32(len(tl))
				pendLen[i] = int32(npend)
			}
		}
		if workers == 1 || wn == 1 {
			scan(0, wn, cnt, pos, make([]int32, 0, k))
		} else {
			runScanChunks(wn, workers, k, scan)
		}

		// Commit phase: sequential, stream order, against live state.
		for i := 0; i < wn; i++ {
			v := win[i]
			base := scanOff[i]
			touched = touched[:0]
			for j := int64(0); j < int64(preLen[i]); j++ {
				a := int64(preGroup[base+j])
				cnt[a] = int64(preCount[base+j])
				pos[a] = prePos[base+j]
				touched = append(touched, int(a))
			}
			// Patch in pending neighbours placed earlier in this window.
			for j := int64(0); j < int64(pendLen[i]); j++ {
				a := assign[pendBuf[base+j]]
				if a == Unassigned {
					continue
				}
				if cnt[a] == 0 {
					pos[a] = pendPos[base+j]
					touched = append(touched, int(a))
				} else if sp := pendPos[base+j]; sp < pos[a] {
					pos[a] = sp
				}
				cnt[a]++
			}
			sortTouchedByPos(touched, pos)

			best := int64(-1)
			if len(touched) == 0 {
				best = p.placeUnconstrained(used, rnd, v)
			} else {
				var cv float64
				for _, j := range touched {
					cv += float64(cnt[j])
				}
				scale := placedEdges + cv
				if p.FinalTarget {
					scale = m
				}
				best = p.placeByFrobenius(cur, targetP, scale, used, cnt, touched)
			}
			if best < 0 {
				return nil, nil, fmt.Errorf("match: no feasible group for node %d", v)
			}

			for _, j := range touched {
				c := float64(cnt[j])
				placedEdges += c
				cur[best*int64(k)+int64(j)] += c
				if int64(j) != best {
					cur[int64(j)*int64(k)+best] += c
				}
				cnt[j] = 0
			}
			assign[v] = best
			used[best]++
		}
	}
	return assign, cur, nil
}

// runScanChunks fans a window's scan phase across workers in static
// contiguous chunks; every worker owns private count/position/touched
// scratch, so concurrent scans share no mutable state. Both the first
// pass and the refinement passes dispatch their scans through here.
func runScanChunks(wn, workers, k int, scan func(lo, hi int, cnt []int64, pos []int32, tl []int32)) {
	if wn <= 0 {
		return
	}
	chunk := (wn + workers - 1) / workers
	nChunks := (wn + chunk - 1) / chunk
	par.Workers(nChunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > wn {
			hi = wn
		}
		scan(lo, hi, make([]int64, k), make([]int32, k), make([]int32, 0, k))
	})
}

// sortTouchedByPos restores the serial first-occurrence group order
// after a windowed commit merged settled and pending neighbours:
// floating-point accumulation makes the group visit order significant,
// so every windowed path re-sorts by first scan position before
// scoring. Insertion sort: touched is at most min(k, deg) entries and
// nearly sorted already.
func sortTouchedByPos(touched []int, pos []int32) {
	for a := 1; a < len(touched); a++ {
		t := touched[a]
		b := a - 1
		for b >= 0 && pos[touched[b]] > pos[t] {
			touched[b+1] = touched[b]
			b--
		}
		touched[b+1] = t
	}
}
