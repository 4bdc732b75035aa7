package match

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/par"
)

// Re-streaming: the paper defers "optimization strategies" to future
// work; the standard one for streaming partitioners (restreamed LDG,
// Nishimura & Ugander KDD'13) is to replay the stream in additional
// passes. Each pass starts with fresh capacity quotas — otherwise every
// group is exactly full after pass one and no node could ever move —
// and scores every node against the *hybrid* assignment: neighbours
// already re-placed this pass use their new group, the rest keep their
// previous-pass group. That gives every node (in particular the early-
// stream nodes that pass one placed almost blind) a full-neighbourhood
// view. Refinement passes iterate hubs first (degree descending): high-
// degree nodes carry the most matrix mass, and re-anchoring them before
// the long tail is what converts the full-information pass into a net
// win — with the original random order, refinement oscillates and
// *degrades* (measured in TestProbe-style sweeps: 0.29 → 0.35 L1
// random vs 0.29 → 0.08 degree-ordered on LFR(5k,16)). Per-pass
// complexity stays O(Σ deg(v) + n·k).
//
// Like the first pass, refinement passes run windowed when RefineWindow
// (or, by inheritance, Window) exceeds 1: a parallel scan phase
// classifies every window node's neighbourhood against a frozen hybrid
// snapshot, a sequential commit phase replays the window in refinement
// order and patches in the neighbours re-placed earlier in the same
// window. The refined partition is byte-identical to the serial pass at
// every window size and worker count — including the floating-point
// summation order of the vacate/re-add joint-matrix updates; see
// refinePassWindowed.
func (p *SBMPart) PartitionMultiPass(g *graph.Graph, order []int64, extra int) ([]int64, error) {
	assign, _, err := p.partitionMultiPass(g, order, extra)
	return assign, err
}

// partitionMultiPass also returns the carried joint matrix (see below)
// so the differential tests can compare it against a recount.
func (p *SBMPart) partitionMultiPass(g *graph.Graph, order []int64, extra int) ([]int64, []float64, error) {
	if extra < 0 {
		return nil, nil, fmt.Errorf("match: negative refinement passes")
	}
	start := time.Now()
	// cur is the joint matrix of assign (each non-loop edge counted once,
	// mirrored off-diagonal) and stays so from pass to pass without ever
	// being recounted: every entry is an integer-valued float64 far below
	// 2^53, so a pass's vacate/re-add updates are exact, and once its
	// last node has committed cur is bit for bit the joint matrix of the
	// new assignment (TestCarriedJointMatrixMatchesRecount).
	assign, cur, err := p.partition(g, order)
	if err != nil {
		return nil, nil, err
	}
	p.PassTimes = append(p.PassTimes[:0], time.Since(start))
	if extra == 0 {
		return assign, cur, nil
	}
	k := p.K
	n := g.N()

	targetP := p.targetMatrix()
	m := float64(g.M())

	cnt := make([]int64, k)
	touched := make([]int, 0, k)
	// usedNew is the per-pass quota ledger, zeroed in place each pass;
	// refinement only ever reads and bumps it inside the sequential
	// commit loop, which is what keeps the quota accounting — and with
	// it the isolated-node first-feasible fallback — independent of the
	// worker count.
	usedNew := make([]int64, k)
	refineOrder := DegreeDescOrder(g)

	// The windowed pass scans against a frozen snapshot, so it needs the
	// previous assignment beside the one being written; the serial pass
	// refines in place on assign alone.
	var ws *refineWindowState
	var prev []int64
	if window := p.refineWindowSize(n); window > 1 {
		ws = newRefineWindowState(refineOrder, n, window, p.Workers, k)
		prev = make([]int64, n)
	}

	for pass := 0; pass < extra; pass++ {
		passStart := time.Now()
		for t := range usedNew {
			usedNew[t] = 0
		}
		if ws != nil {
			copy(prev, assign)
			for i := range assign {
				assign[i] = Unassigned
			}
			err = p.refinePassWindowed(g, ws, prev, assign, cur, usedNew, targetP, m, cnt, touched)
		} else {
			err = p.refinePassSerial(g, refineOrder, assign, cur, usedNew, targetP, m, cnt, touched)
		}
		if err != nil {
			return nil, nil, err
		}
		p.PassTimes = append(p.PassTimes, time.Since(passStart))
	}
	return assign, cur, nil
}

// Mode names the path the partitioner's knobs select: "serial" or
// "windowed <window>×<scan workers>" for the first pass, followed —
// when refined is set and refinement resolves differently — by the
// refinement passes' mode.
func (p *SBMPart) Mode(refined bool) string {
	name := func(window int) string {
		if window <= 1 {
			return "serial"
		}
		return fmt.Sprintf("windowed %d×%d", window, par.EffectiveWorkers(p.Workers))
	}
	refineWindow := p.RefineWindow
	if refineWindow == 0 {
		refineWindow = p.Window
	}
	first := name(p.Window)
	if refine := name(refineWindow); refined && refine != first {
		return first + ", refine " + refine
	}
	return first
}

// refineWindowSize resolves the refinement window: an explicit
// RefineWindow wins, 0 inherits the first pass's Window, and the result
// is clamped to the stream length exactly like partitionWindowed.
func (p *SBMPart) refineWindowSize(n int64) int {
	w := p.RefineWindow
	if w == 0 {
		w = p.Window
	}
	if w <= 1 {
		return 1
	}
	if int64(w) > n {
		w = int(n)
		if w < 2 {
			w = 2
		}
	}
	return w
}

// refinePassSerial is one re-streaming pass over refineOrder: the
// reference implementation the windowed pass must reproduce byte for
// byte. It refines in place: assign arrives holding the previous
// assignment and, node by node, becomes the new one, so at every step
// it *is* the hybrid assignment and a neighbour's group is one read.
// usedNew arrives all-zero; cur holds the joint matrix of assign.
func (p *SBMPart) refinePassSerial(g *graph.Graph, refineOrder, assign []int64, cur []float64, usedNew []int64, targetP []float64, m float64, cnt []int64, touched []int) error {
	for _, v := range refineOrder {
		touched = touched[:0]
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			a := assign[u]
			if cnt[a] == 0 {
				touched = append(touched, int(a))
			}
			cnt[a]++
		}
		best, err := p.refineCommit(v, assign[v], cur, targetP, m, usedNew, cnt, touched)
		if err != nil {
			return err
		}
		assign[v] = best
	}
	return nil
}

// refineCommit is the determinism-critical tail of one refinement
// placement, shared verbatim by the serial and windowed passes so the
// floating-point update order can never diverge between them: vacate
// v's previous contributions from the joint matrix (touched must
// already be in serial first-occurrence order), pick the target group,
// re-add the contributions under it, clear the sparse counts and bump
// the quota ledger.
func (p *SBMPart) refineCommit(v, old int64, cur, targetP []float64, m float64, usedNew, cnt []int64, touched []int) (int64, error) {
	kk := int64(p.K)
	for _, j := range touched {
		c := float64(cnt[j])
		cur[old*kk+int64(j)] -= c
		if int64(j) != old {
			cur[int64(j)*kk+old] -= c
		}
	}
	best, err := p.refinePlace(v, old, cur, targetP, m, usedNew, cnt, touched)
	if err != nil {
		return -1, err
	}
	for _, j := range touched {
		c := float64(cnt[j])
		cur[best*kk+int64(j)] += c
		if int64(j) != best {
			cur[int64(j)*kk+best] += c
		}
		cnt[j] = 0
	}
	usedNew[best]++
	return best, nil
}

// refinePlace picks the refinement target group for node v: the
// Frobenius score against the full-matrix target, or — for isolated
// nodes — the previous group if quota allows, else the first feasible
// group by index. The fallback scan reads only usedNew, which is
// mutated exclusively by the sequential commit loop, so its outcome is
// a pure function of the commit prefix: deterministic at any window
// size and worker count.
func (p *SBMPart) refinePlace(v, old int64, cur, targetP []float64, m float64, usedNew, cnt []int64, touched []int) (int64, error) {
	var best int64
	if len(touched) == 0 {
		// Keep isolated nodes in place if quota allows.
		best = old
		if usedNew[old] >= p.Capacities[old] {
			best = -1
			for t := 0; t < p.K; t++ {
				if usedNew[t] < p.Capacities[t] {
					best = int64(t)
					break
				}
			}
		}
	} else {
		best = p.placeByFrobenius(cur, targetP, m, usedNew, cnt, touched)
	}
	if best < 0 {
		return -1, fmt.Errorf("match: refinement pass has no feasible group for node %d", v)
	}
	return best, nil
}

// refineWindowState is the per-call scratch of the windowed refinement
// passes: the refinement stream, its rank index, and the scan arenas —
// allocated once, reused across windows and passes.
type refineWindowState struct {
	order []int64 // refinement stream (degree descending)
	// rank[v] is v's position in order. A neighbour that is unassigned
	// at the scan snapshot but ranked beyond the current window cannot
	// be re-placed before any node of the window commits, so its hybrid
	// group is its previous-pass group — the scan resolves it
	// immediately and only same-window neighbours stay pending.
	rank    []int64
	window  int
	workers int

	// Per-window arenas; node i of the window owns the disjoint range
	// [scanOff[i], scanOff[i+1]).
	scanOff  []int64
	preLen   []int32 // settled (group,count,pos) triples per node
	pendLen  []int32 // pending same-window neighbours per node
	preGroup []int32 // arena: settled group ids
	preCount []int32 // arena: settled per-group counts
	prePos   []int32 // arena: settled first scan positions
	pendBuf  []int64 // arena: pending neighbour ids
	pendPos  []int32 // arena: pending scan positions
	pos      []int32 // commit-phase first-occurrence position per group
}

func newRefineWindowState(order []int64, n int64, window, workers, k int) *refineWindowState {
	workers = par.EffectiveWorkers(workers)
	if workers > window {
		workers = window
	}
	rank := make([]int64, n)
	for i, v := range order {
		rank[v] = int64(i)
	}
	return &refineWindowState{
		order:   order,
		rank:    rank,
		window:  window,
		workers: workers,
		scanOff: make([]int64, window+1),
		preLen:  make([]int32, window),
		pendLen: make([]int32, window),
		pos:     make([]int32, k),
	}
}

// refinePassWindowed is one re-streaming pass with the scan/commit
// split of partitionWindowed applied to the hybrid assignment:
//
//  1. Scan phase (parallel): every window node's neighbourhood is
//     classified against a frozen snapshot. A neighbour placed before
//     the window start is settled under its new group; a neighbour
//     ranked beyond the window is settled under its previous-pass group
//     (it cannot move until after this window commits); a same-window
//     neighbour is pending — its hybrid group depends on the commit
//     order — and is recorded verbatim with its scan position.
//  2. Commit phase (sequential, refinement order): each node's settled
//     counts are patched with the pending neighbours' live groups
//     (new-assignment-if-placed, else previous-pass), the touched list
//     is re-sorted to the serial first-occurrence order, and the
//     vacate → score → re-add sequence runs against the live joint
//     matrix and quota ledger — the same inputs, summed in the same
//     floating-point order, as refinePassSerial.
//
// The committed pass is therefore byte-identical to the serial pass at
// every window size and worker count; only the neighbourhood-scan wall
// time is amortised across cores.
func (p *SBMPart) refinePassWindowed(g *graph.Graph, ws *refineWindowState, prev, assign []int64, cur []float64, usedNew []int64, targetP []float64, m float64, cnt []int64, touched []int) error {
	k := p.K
	n := g.N()
	pos := ws.pos

	for w0 := int64(0); w0 < n; w0 += int64(ws.window) {
		w1 := w0 + int64(ws.window)
		if w1 > n {
			w1 = n
		}
		wn := int(w1 - w0)
		win := ws.order[w0:w1]

		ws.scanOff[0] = 0
		for i := 0; i < wn; i++ {
			ws.scanOff[i+1] = ws.scanOff[i] + g.Degree(win[i])
		}
		if need := ws.scanOff[wn]; int64(cap(ws.pendBuf)) < need {
			ws.pendBuf = make([]int64, need)
			ws.pendPos = make([]int32, need)
			ws.preGroup = make([]int32, need)
			ws.preCount = make([]int32, need)
			ws.prePos = make([]int32, need)
		}

		// Scan phase: static contiguous chunks over the frozen snapshot
		// (assign is not written until every scan worker has finished).
		scan := func(lo, hi int, cnt []int64, posLoc []int32, tl []int32) {
			for i := lo; i < hi; i++ {
				v := win[i]
				base := ws.scanOff[i]
				tl = tl[:0]
				var npend int64
				for si, u := range g.Neighbors(v) {
					if u == v {
						continue
					}
					a := assign[u]
					if a == Unassigned {
						if ws.rank[u] < w1 {
							// Same-window neighbour: may be re-placed by
							// an earlier commit of this window.
							ws.pendBuf[base+npend] = u
							ws.pendPos[base+npend] = int32(si)
							npend++
							continue
						}
						a = prev[u]
					}
					if cnt[a] == 0 {
						posLoc[a] = int32(si)
						tl = append(tl, int32(a))
					}
					cnt[a]++
				}
				for j, a := range tl {
					ws.preGroup[base+int64(j)] = a
					ws.preCount[base+int64(j)] = int32(cnt[a])
					ws.prePos[base+int64(j)] = posLoc[a]
					cnt[a] = 0
				}
				ws.preLen[i] = int32(len(tl))
				ws.pendLen[i] = int32(npend)
			}
		}
		if ws.workers == 1 || wn == 1 {
			scan(0, wn, cnt, pos, make([]int32, 0, k))
		} else {
			runScanChunks(wn, ws.workers, k, scan)
		}

		// Commit phase: sequential, refinement order, live state.
		for i := 0; i < wn; i++ {
			v := win[i]
			old := prev[v]
			base := ws.scanOff[i]
			touched = touched[:0]
			for j := int64(0); j < int64(ws.preLen[i]); j++ {
				a := int64(ws.preGroup[base+j])
				cnt[a] = int64(ws.preCount[base+j])
				pos[a] = ws.prePos[base+j]
				touched = append(touched, int(a))
			}
			// Patch in the live hybrid group of every pending neighbour:
			// its new group if an earlier commit of this window placed
			// it, its previous-pass group otherwise.
			for j := int64(0); j < int64(ws.pendLen[i]); j++ {
				u := ws.pendBuf[base+j]
				a := assign[u]
				if a == Unassigned {
					a = prev[u]
				}
				if cnt[a] == 0 {
					pos[a] = ws.pendPos[base+j]
					touched = append(touched, int(a))
				} else if sp := ws.pendPos[base+j]; sp < pos[a] {
					pos[a] = sp
				}
				cnt[a]++
			}
			sortTouchedByPos(touched, pos)

			best, err := p.refineCommit(v, old, cur, targetP, m, usedNew, cnt, touched)
			if err != nil {
				return err
			}
			assign[v] = best
		}
	}
	return nil
}
