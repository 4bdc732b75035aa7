package match

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/par"
)

// streamWindow is the stream window of the windowed driver — large
// enough to amortise the scan fan-out, small enough that few neighbours
// of a node fall inside its own window and have to be patched in by the
// commit.
const streamWindow = 2048

// windowedMinWorkers is the effective parallelism (par.EffectiveWorkers)
// from which a run takes the windowed driver. Below it the windowed
// driver loses to the serial one, 1.4–2× on the 2-core box that
// measured it (serial → windowed at 1 / 2 scan workers): LFR-30k first
// pass 10.0 → 15.2 / 14.4 ms, with two refinement passes 28.8 → 51.0 /
// 48.0 ms, bipartite 30k/15k 10.2 → 11.7 / 13.4 ms, RMAT-18 first pass
// 134 → 273 / 202 ms — the scan arenas and the commit's patch-and-sort
// cost more than one extra scan worker gives back. The sequential
// commit phase alone is 76–82 ms of serial's 120–160 ms on RMAT-18 and
// LFR-300k, so a win from 4 scan workers up is possible; 3 and up is
// unmeasured and stays windowed. BenchmarkStreamScaling is the
// measurement that settles it: if the windowed side loses there too,
// runWindowed and this rule are deleted and run keeps its first loop.
const windowedMinWorkers = 3

// autoWindow is the rule that picks the driver: serial (window 1) below
// windowedMinWorkers effective workers, streamWindow from there up — for
// the first pass, refinement and the bipartite stream alike. The
// assignment is the same either way, so the worker bound is the only
// thing that moves it.
func autoWindow(workers int) int {
	if par.EffectiveWorkers(workers) < windowedMinWorkers {
		return 1
	}
	return streamWindow
}

// streamMode names the driver autoWindow picks, for timing reports.
func streamMode(workers int) string {
	if w := autoWindow(workers); w > 1 {
		return fmt.Sprintf("windowed %d×%d", w, par.EffectiveWorkers(workers))
	}
	return "serial"
}

// checkStream validates the inputs every streaming partitioner shares:
// order must be a permutation of [0, n) and the capacities must cover n.
func checkStream(order []int64, n int64, capacities []int64) error {
	if int64(len(order)) != n {
		return fmt.Errorf("match: order has %d entries for %d nodes", len(order), n)
	}
	var total int64
	for _, q := range capacities {
		total += q
	}
	if total < n {
		return fmt.Errorf("match: total capacity %d below node count %d", total, n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("match: order is not a permutation (node %d)", v)
		}
		seen[v] = true
	}
	return nil
}

// stream is the kernel every streaming partitioner in this package runs
// on: the graph, the assignment being built, and the per-node scratch
// that carries a node's neighbour-group counts from the gather (or the
// windowed scan) to the variant's commit callback. A commit reads cnt
// and touched, decides v's group, writes assign[v] and zeroes the cnt
// entries it was handed; that is all a variant supplies.
type stream struct {
	g      *graph.Graph
	assign []int64 // group per node, Unassigned until placed

	cnt     []int64 // v's placed neighbours per group; non-zero only at touched
	touched []int   // groups with cnt > 0, in the order v's neighbour list first reaches them
	pos     []int32 // windowed commit only: neighbour-list position of each touched group's first member

	win windowArena
}

func newStream(g *graph.Graph, k int) *stream {
	s := &stream{
		g:       g,
		assign:  make([]int64, g.N()),
		cnt:     make([]int64, k),
		touched: make([]int, 0, k),
		pos:     make([]int32, k),
	}
	for i := range s.assign {
		s.assign[i] = Unassigned
	}
	return s
}

// gather counts v's neighbours per group under the current assignment,
// skipping self-loops and neighbours not placed yet.
func (s *stream) gather(v int64) {
	assign, cnt, touched := s.assign, s.cnt, s.touched[:0]
	for _, u := range s.g.Neighbors(v) {
		if u == v {
			continue
		}
		if a := assign[u]; a != Unassigned {
			if cnt[a] == 0 {
				touched = append(touched, int(a))
			}
			cnt[a]++
		}
	}
	s.touched = touched
}

// run streams order through commit: serially (gather, commit, next
// node) when window <= 1, through the windowed driver otherwise. Both
// hand every commit the same cnt and touched, so the assignment does
// not depend on window or workers.
func (s *stream) run(order []int64, window, workers int, commit func(v int64) error) error {
	if window > 1 && len(order) > 0 {
		return s.runWindowed(order, window, workers, commit)
	}
	for _, v := range order {
		s.gather(v)
		if err := commit(v); err != nil {
			return err
		}
	}
	return nil
}

// windowArena is runWindowed's scratch, kept on the stream so that
// refinement passes reuse what the first pass allocated. Node i of the
// current window owns the range [off[i], off[i+1]) of every arena —
// disjoint by construction, so scan workers never write the same cell.
type windowArena struct {
	inWindow []bool  // per node: a member of the window being processed
	off      []int64 // per window slot: arena offset (prefix sum of degrees)
	nSettled []int32 // per window slot: settled (group, count, pos) triples
	nPending []int32 // per window slot: pending neighbours
	group    []int32 // arena: settled group ids, in first-occurrence order
	count    []int32 // arena: settled per-group counts
	groupPos []int32 // arena: settled groups' first neighbour-list positions
	pending  []int64 // arena: pending neighbour ids
	pendPos  []int32 // arena: pending neighbours' neighbour-list positions

	// Wall time spent in the two phases so far (BenchmarkStreamScaling):
	// scanTime shrinks with scan workers, commitTime is the serial floor.
	scanTime, commitTime time.Duration
}

// runWindowed processes order in windows of the given size. The
// expensive part of a placement is the neighbourhood scan (O(deg v),
// random reads of assign); the decision is O(k·|touched|). So:
//
//  1. Scan (parallel): every node of the window counts its neighbours'
//     groups against assign, which no one writes until the scans are
//     done. A neighbour outside the window is settled — whatever assign
//     holds for it (its group from this pass if an earlier window
//     placed it, its previous-pass group during refinement if it is
//     still ahead, Unassigned and therefore skipped if it is still
//     ahead in the first pass) cannot change before this window is
//     committed. A neighbour inside the window is pending: its group
//     depends on the commit order, so it is recorded verbatim with its
//     position in the neighbour list.
//  2. Commit (sequential, stream order): the settled counts are patched
//     with each pending neighbour's live group, which reconstructs
//     exactly the counts gather would have produced at that point of
//     the serial stream. The commit callback then runs against live
//     state — the same inputs as in the serial stream.
//
// Placement scores are floating-point sums over touched, so the order
// of touched is significant: gather lists groups as the neighbour list
// first reaches them, and patching appends groups out of that order.
// Hence every group carries the position of its first member and
// touched is re-sorted by it before the commit.
func (s *stream) runWindowed(order []int64, window, workers int, commit func(v int64) error) error {
	g, assign, k := s.g, s.assign, len(s.cnt)
	n := len(order)
	if window > n {
		window = n
	}
	workers = min(par.EffectiveWorkers(workers), window)
	a := &s.win
	if a.inWindow == nil {
		a.inWindow = make([]bool, g.N())
	}
	if len(a.off) <= window {
		a.off, a.nSettled, a.nPending = make([]int64, window+1), make([]int32, window), make([]int32, window)
	}

	for w0 := 0; w0 < n; w0 += window {
		win := order[w0:min(w0+window, n)]
		for i, v := range win {
			a.inWindow[v] = true
			a.off[i+1] = a.off[i] + g.Degree(v)
		}
		if need := a.off[len(win)]; int64(len(a.pending)) < need {
			a.group, a.count, a.groupPos = make([]int32, need), make([]int32, need), make([]int32, need)
			a.pending, a.pendPos = make([]int64, need), make([]int32, need)
		}

		// Static contiguous chunks; every worker owns private count,
		// position and group-list scratch.
		scanStart := time.Now()
		chunk := (len(win) + workers - 1) / workers
		par.Workers((len(win)+chunk-1)/chunk, func(c int) {
			cnt, pos, groups := s.cnt, s.pos, make([]int32, 0, k)
			if workers > 1 {
				cnt, pos = make([]int64, k), make([]int32, k)
			}
			for i := c * chunk; i < min((c+1)*chunk, len(win)); i++ {
				v, base := win[i], a.off[i]
				groups = groups[:0]
				var nPending int64
				for at, u := range g.Neighbors(v) {
					if u == v {
						continue
					}
					if a.inWindow[u] {
						a.pending[base+nPending], a.pendPos[base+nPending] = u, int32(at)
						nPending++
						continue
					}
					t := assign[u]
					if t == Unassigned {
						continue
					}
					if cnt[t] == 0 {
						pos[t] = int32(at)
						groups = append(groups, int32(t))
					}
					cnt[t]++
				}
				for j, t := range groups {
					a.group[base+int64(j)], a.count[base+int64(j)], a.groupPos[base+int64(j)] = t, int32(cnt[t]), pos[t]
					cnt[t] = 0
				}
				a.nSettled[i], a.nPending[i] = int32(len(groups)), int32(nPending)
			}
		})

		commitStart := time.Now()
		a.scanTime += commitStart.Sub(scanStart)
		cnt, pos := s.cnt, s.pos
		for i, v := range win {
			base := a.off[i]
			touched := s.touched[:0]
			for j := base; j < base+int64(a.nSettled[i]); j++ {
				t := a.group[j]
				cnt[t], pos[t] = int64(a.count[j]), a.groupPos[j]
				touched = append(touched, int(t))
			}
			for j := base; j < base+int64(a.nPending[i]); j++ {
				t := assign[a.pending[j]]
				if t == Unassigned {
					continue
				}
				if cnt[t] == 0 {
					pos[t] = a.pendPos[j]
					touched = append(touched, int(t))
				} else if a.pendPos[j] < pos[t] {
					pos[t] = a.pendPos[j]
				}
				cnt[t]++
			}
			sortByPos(touched, pos)
			s.touched = touched
			if err := commit(v); err != nil {
				return err
			}
		}
		for _, v := range win {
			a.inWindow[v] = false
		}
		a.commitTime += time.Since(commitStart)
	}
	return nil
}

// sortByPos orders touched by each group's first neighbour-list
// position. Insertion sort: at most min(k, deg v) entries, nearly sorted.
func sortByPos(touched []int, pos []int32) {
	for x := 1; x < len(touched); x++ {
		t := touched[x]
		y := x - 1
		for ; y >= 0 && pos[touched[y]] > pos[t]; y-- {
			touched[y+1] = touched[y]
		}
		touched[y+1] = t
	}
}
