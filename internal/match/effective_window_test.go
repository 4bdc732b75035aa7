package match

import (
	"runtime"
	"testing"
)

// TestEffectiveWindow pins the scan-mode policy over the (GOMAXPROCS,
// window, workers) grid: an explicit window always wins, an auto window
// is the serial stream while the effective parallelism — workers capped
// at GOMAXPROCS, 0 meaning GOMAXPROCS — is at most 2, and DefaultWindow
// from 3 up.
func TestEffectiveWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, window, workers, want int }{
		// Explicit windows win at any parallelism.
		{1, 64, 0, 64}, {1, 2048, 1, 2048}, {8, -1, 0, -1}, {8, 1, 8, 1}, {2, 1 << 20, 8, 1 << 20},
		// Auto: serial at effective parallelism 1 and 2.
		{1, 0, 0, 1}, {1, 0, 1, 1}, {1, 0, 8, 1},
		{2, 0, 0, 1}, {2, 0, 2, 1}, {2, 0, 8, 1}, // Workers: 8 under GOMAXPROCS=2 counts as 2
		{8, 0, 1, 1}, {8, 0, 2, 1},
		// Auto: windowed from 3 effective workers up.
		{3, 0, 0, DefaultWindow}, {4, 0, 0, DefaultWindow}, {4, 0, 3, DefaultWindow},
		{4, 0, 8, DefaultWindow}, {8, 0, 4, DefaultWindow},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got := EffectiveWindow(tc.window, tc.workers); got != tc.want {
			t.Errorf("GOMAXPROCS=%d window=%d workers=%d: got %d, want %d", tc.procs, tc.window, tc.workers, got, tc.want)
		}
	}
}

// TestSBMPartMode: the mode string names what the knobs resolve to, and
// mentions refinement only when it ran on a different path.
func TestSBMPartMode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, tc := range []struct {
		window, refineWindow, workers int
		refined                       bool
		want                          string
	}{
		{1, 0, 0, true, "serial"},
		{-1, 64, 0, false, "serial"},
		{-1, 64, 8, true, "serial, refine windowed 64×4"},
		{2048, 0, 0, true, "windowed 2048×4"},
		{2048, -1, 2, true, "windowed 2048×2, refine serial"},
		{2048, 512, 0, true, "windowed 2048×4, refine windowed 512×4"},
	} {
		p := &SBMPart{Window: tc.window, RefineWindow: tc.refineWindow, Workers: tc.workers}
		if got := p.Mode(tc.refined); got != tc.want {
			t.Errorf("window=%d refine=%d workers=%d refined=%v: got %q, want %q", tc.window, tc.refineWindow, tc.workers, tc.refined, got, tc.want)
		}
	}
}
