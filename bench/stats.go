package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) by linear
// interpolation between closest ranks; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean; NaN for no values.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relDiff is |b-a| as a share of |a|; 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}

// window is a wall clock and a CPU clock over one phase of a run
// (set-up or the measured loop) that can be paused while the harness
// verifies outputs, so verification costs neither time nor — on the
// daemon, which serves the verification downloads — CPU.
type window struct {
	// cpuNow reads the cumulative user and system CPU seconds of a
	// long-lived system under test (the daemon); nil when CPU comes
	// from per-child rusage.
	cpuNow cpuClock

	start   time.Time
	paused  time.Duration
	userOff float64 // user CPU at start plus user CPU spent paused
	sysOff  float64
}

type cpuClock func() (user, sys float64)

func startWindow(cpuNow cpuClock) *window {
	w := &window{cpuNow: cpuNow}
	if cpuNow != nil {
		w.userOff, w.sysOff = cpuNow()
	}
	w.start = time.Now()
	return w
}

// pause runs fn off both clocks. Only the single goroutine that owns
// the window may call it.
func (w *window) pause(fn func()) {
	t0 := time.Now()
	var u0, s0 float64
	if w.cpuNow != nil {
		u0, s0 = w.cpuNow()
	}
	fn()
	if w.cpuNow != nil {
		u1, s1 := w.cpuNow()
		w.userOff += u1 - u0
		w.sysOff += s1 - s0
	}
	w.paused += time.Since(t0)
}

// elapsed is the unpaused wall time so far.
func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.paused }

// cpu is the unpaused user and system CPU seconds so far (0 without a
// cpuNow).
func (w *window) cpu() (user, sys float64) {
	if w.cpuNow == nil {
		return 0, 0
	}
	u, s := w.cpuNow()
	return u - w.userOff, s - w.sysOff
}
