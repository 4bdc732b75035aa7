package match

import (
	"fmt"

	"datasynth/internal/par"
	"datasynth/internal/xrand"
)

// Windowed-parallel bipartite SBM-Part: the same frozen-snapshot scan /
// sequential commit split as the monopartite partitioner (window.go)
// and the re-streaming refinement passes, applied to the two-domain
// stream. The combined order interleaves tail nodes (x < nTail) and
// head nodes (x >= nTail); a node's neighbourhood scan classifies its
// *opposite-side* neighbours against the assignment snapshot as of the
// window start — settled neighbours reduce to (group, count, first
// scan position) triples, pending ones are recorded verbatim — and the
// sequential commit patches the pendings against the live assignment,
// re-sorts the touched groups by first scan position (floating-point
// accumulation makes the serial first-occurrence order significant),
// and places the node with the exact serial scoring inputs. The
// committed matching is therefore byte-identical to the serial stream
// at every window size and worker count.

// bipState is the streaming state of one bipartite matching run,
// shared by the serial and windowed paths so both execute the
// identical placement rule.
type bipState struct {
	nTail            int64
	kt, kh           int
	tailAdj, headAdj *adj
	tw               []float64 // target P, row-major kt×kh
	cur              []float64 // placed-edge counts per (tail,head) group pair
	placedEdges      float64
	assignT, assignH []int64
	usedT, usedH     []int64
	capT, capH       []int64
	order            []int64 // combined stream: tails then heads offset by nTail
	balance          bool
	rnd              xrand.Stream
}

// runSerial places the combined stream one node at a time — the
// reference semantics every windowed configuration must reproduce.
func (s *bipState) runSerial() error {
	kt, kh := s.kt, s.kh
	cntH := make([]int64, kh)
	cntT := make([]int64, kt)
	var touched []int
	// Scratch for pickGroup's per-placement scores, sized for either
	// side and reused across the whole stream; the delta closures are
	// likewise hoisted out of the loop (they read the loop state through
	// captured variables), so placements allocate nothing per node.
	scratch := make([]float64, max(kt, kh))
	var scale float64
	tailDelta := func(t int) float64 {
		var d float64
		for _, j := range touched {
			c := float64(cntH[j])
			a := s.cur[t*kh+j] - scale*s.tw[t*kh+j]
			d += c * (2*a + c)
		}
		return d
	}
	headDelta := func(h int) float64 {
		var d float64
		for _, i := range touched {
			c := float64(cntT[i])
			a := s.cur[i*kh+h] - scale*s.tw[i*kh+h]
			d += c * (2*a + c)
		}
		return d
	}

	for _, x := range s.order {
		if x < s.nTail {
			v := x
			// Count placed head neighbours per head group.
			touched = touched[:0]
			for _, u := range s.tailAdj.neighbors(v) {
				if a := s.assignH[u]; a != Unassigned {
					if cntH[a] == 0 {
						touched = append(touched, int(a))
					}
					cntH[a]++
				}
			}
			var cv float64
			for _, j := range touched {
				cv += float64(cntH[j])
			}
			scale = s.placedEdges + cv
			best := pickGroup(kt, s.usedT, s.capT, tailDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
			if best < 0 {
				return fmt.Errorf("match: no feasible tail group for node %d", v)
			}
			for _, j := range touched {
				s.placedEdges += float64(cntH[j])
				s.cur[int(best)*kh+j] += float64(cntH[j])
				cntH[j] = 0
			}
			s.assignT[v] = best
			s.usedT[best]++
		} else {
			v := x - s.nTail
			touched = touched[:0]
			for _, u := range s.headAdj.neighbors(v) {
				if a := s.assignT[u]; a != Unassigned {
					if cntT[a] == 0 {
						touched = append(touched, int(a))
					}
					cntT[a]++
				}
			}
			var cv float64
			for _, i := range touched {
				cv += float64(cntT[i])
			}
			scale = s.placedEdges + cv
			best := pickGroup(kh, s.usedH, s.capH, headDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
			if best < 0 {
				return fmt.Errorf("match: no feasible head group for node %d", v)
			}
			for _, i := range touched {
				s.placedEdges += float64(cntT[i])
				s.cur[i*kh+int(best)] += float64(cntT[i])
				cntT[i] = 0
			}
			s.assignH[v] = best
			s.usedH[best]++
		}
	}
	return nil
}

// runWindowed processes the combined stream in windows: parallel scans
// against the frozen snapshot, then a sequential stream-order commit.
func (s *bipState) runWindowed(window, workers int) error {
	n := int64(len(s.order))
	kt, kh := s.kt, s.kh
	kmax := max(kt, kh)
	// A window can never usefully exceed the stream; clamping keeps the
	// per-window scratch proportional to the graph even when a caller
	// passes an oversized knob ("whole stream" = window >= n).
	if int64(window) > n {
		window = int(n)
		if window < 2 {
			window = 2
		}
	}
	workers = par.EffectiveWorkers(workers)
	if workers > window {
		workers = window
	}

	// Commit-side scratch: per-side counts and first-scan positions,
	// rebuilt per node from the scan triples.
	cntH := make([]int64, kh)
	cntT := make([]int64, kt)
	posH := make([]int32, kh)
	posT := make([]int32, kt)
	touched := make([]int, 0, kmax)
	scratch := make([]float64, kmax)
	var scale float64
	tailDelta := func(t int) float64 {
		var d float64
		for _, j := range touched {
			c := float64(cntH[j])
			a := s.cur[t*kh+j] - scale*s.tw[t*kh+j]
			d += c * (2*a + c)
		}
		return d
	}
	headDelta := func(h int) float64 {
		var d float64
		for _, i := range touched {
			c := float64(cntT[i])
			a := s.cur[i*kh+h] - scale*s.tw[i*kh+h]
			d += c * (2*a + c)
		}
		return d
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
	// Shared scan scratch for the single-worker case, sized for either
	// side (scan zeroes its counts after flushing each node).
	scanCnt := make([]int64, kmax)
	scanPos := make([]int32, kmax)
	scanTl := make([]int32, 0, kmax)

	for w0 := int64(0); w0 < n; w0 += int64(window) {
		w1 := w0 + int64(window)
		if w1 > n {
			w1 = n
		}
		wn := int(w1 - w0)
		win := s.order[w0:w1]

		scanOff[0] = 0
		for i := 0; i < wn; i++ {
			x := win[i]
			var deg int64
			if x < s.nTail {
				deg = s.tailAdj.degree(x)
			} else {
				deg = s.headAdj.degree(x - s.nTail)
			}
			scanOff[i+1] = scanOff[i] + deg
		}
		if need := scanOff[wn]; int64(cap(pendBuf)) < need {
			pendBuf = make([]int64, need)
			pendPos = make([]int32, need)
			preGroup = make([]int32, need)
			preCount = make([]int32, need)
			prePos = make([]int32, need)
		}

		// Scan phase: static contiguous chunks; every worker classifies
		// its nodes' opposite-side neighbourhoods against the frozen
		// assignment. Assignments are append-only within the run, so a
		// neighbour is either settled (group final) or pending (can only
		// be placed by an earlier commit of this same window).
		scan := func(lo, hi int, cnt []int64, posLoc []int32, tl []int32) {
			for i := lo; i < hi; i++ {
				x := win[i]
				base := scanOff[i]
				tl = tl[:0]
				var npend int64
				var nbrs []int64
				var opp []int64
				if x < s.nTail {
					nbrs = s.tailAdj.neighbors(x)
					opp = s.assignH
				} else {
					nbrs = s.headAdj.neighbors(x - s.nTail)
					opp = s.assignT
				}
				for si, u := range nbrs {
					if a := opp[u]; a != Unassigned {
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
			scan(0, wn, scanCnt, scanPos, scanTl)
		} else {
			runScanChunks(wn, workers, kmax, scan)
		}

		// Commit phase: sequential, stream order, against live state.
		for i := 0; i < wn; i++ {
			x := win[i]
			base := scanOff[i]
			touched = touched[:0]
			if x < s.nTail {
				for j := int64(0); j < int64(preLen[i]); j++ {
					a := int64(preGroup[base+j])
					cntH[a] = int64(preCount[base+j])
					posH[a] = prePos[base+j]
					touched = append(touched, int(a))
				}
				// Patch in pending head neighbours placed earlier in
				// this window.
				for j := int64(0); j < int64(pendLen[i]); j++ {
					a := s.assignH[pendBuf[base+j]]
					if a == Unassigned {
						continue
					}
					if cntH[a] == 0 {
						posH[a] = pendPos[base+j]
						touched = append(touched, int(a))
					} else if sp := pendPos[base+j]; sp < posH[a] {
						posH[a] = sp
					}
					cntH[a]++
				}
				sortTouchedByPos(touched, posH)

				var cv float64
				for _, j := range touched {
					cv += float64(cntH[j])
				}
				scale = s.placedEdges + cv
				best := pickGroup(kt, s.usedT, s.capT, tailDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
				if best < 0 {
					return fmt.Errorf("match: no feasible tail group for node %d", x)
				}
				for _, j := range touched {
					s.placedEdges += float64(cntH[j])
					s.cur[int(best)*kh+j] += float64(cntH[j])
					cntH[j] = 0
				}
				s.assignT[x] = best
				s.usedT[best]++
			} else {
				v := x - s.nTail
				for j := int64(0); j < int64(preLen[i]); j++ {
					a := int64(preGroup[base+j])
					cntT[a] = int64(preCount[base+j])
					posT[a] = prePos[base+j]
					touched = append(touched, int(a))
				}
				for j := int64(0); j < int64(pendLen[i]); j++ {
					a := s.assignT[pendBuf[base+j]]
					if a == Unassigned {
						continue
					}
					if cntT[a] == 0 {
						posT[a] = pendPos[base+j]
						touched = append(touched, int(a))
					} else if sp := pendPos[base+j]; sp < posT[a] {
						posT[a] = sp
					}
					cntT[a]++
				}
				sortTouchedByPos(touched, posT)

				var cv float64
				for _, g := range touched {
					cv += float64(cntT[g])
				}
				scale = s.placedEdges + cv
				best := pickGroup(kh, s.usedH, s.capH, headDelta, len(touched) > 0, s.balance, s.rnd, x, scratch)
				if best < 0 {
					return fmt.Errorf("match: no feasible head group for node %d", v)
				}
				for _, g := range touched {
					s.placedEdges += float64(cntT[g])
					s.cur[g*kh+int(best)] += float64(cntT[g])
					cntT[g] = 0
				}
				s.assignH[v] = best
				s.usedH[best]++
			}
		}
	}
	return nil
}

// degree returns one side's neighbour count.
func (a *adj) degree(v int64) int64 { return a.offs[v+1] - a.offs[v] }
