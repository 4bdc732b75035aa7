package exp

import (
	"fmt"
	"sync"

	"datasynth/internal/par"
)

// Parallel panel fan-out. The panels of a figure are fully independent
// — each owns its seed and every RNG stream derives from it — so they
// can run concurrently without touching the per-panel determinism
// contract: RunPanels produces results byte-identical to the serial
// RunPanel loop at any GOMAXPROCS, and delivers them to the caller in
// submission order as soon as each prefix of the panel list has
// finished (streaming, not batch). The timing experiment (RunTiming)
// deliberately does NOT go through this pool: its panels run one at a
// time so the measured wall times stay the paper's single-thread,
// single-stream numbers — the matcher is serial by construction.

// RunPanels executes the panels on up to GOMAXPROCS goroutines
// (par.Procs) and calls emit once per panel, in submission order, from
// the calling goroutine. One goroutine reproduces the serial loop
// exactly, including its stop-at-first-error behavior: the first panel
// error (in submission order) aborts the stream, and a non-nil error
// from emit does the same. Panels after a failed one may have started
// speculatively; their results are discarded.
func RunPanels(panels []Panel, emit func(*Result) error) error {
	n := len(panels)
	if n == 0 {
		return nil
	}
	workers := min(par.Procs(), n)

	type outcome struct {
		r   *Result
		err error
	}
	// One buffered slot per panel: workers never block on delivery, so
	// an early consumer exit cannot deadlock a worker mid-send. A Result
	// is summary statistics only, so results parked ahead of a slow
	// early panel cost little.
	results := make([]chan outcome, n)
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	jobs := make(chan int, n)
	for i := range n {
		jobs <- i
	}
	close(jobs)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				select {
				case <-done:
					return
				default:
				}
				// par.Safe converts a panicking panel (a generator bug on
				// one parameter point) into that panel's error outcome, so
				// the figure run fails cleanly in submission order instead
				// of taking down the whole experiment binary.
				var r *Result
				err := par.Safe(func() error {
					var runErr error
					r, runErr = RunPanel(panels[i])
					return runErr
				})
				results[i] <- outcome{r, err}
			}
		}()
	}

	var firstErr error
	for i := 0; i < n; i++ {
		o := <-results[i]
		if o.err != nil {
			firstErr = fmt.Errorf("panel %s: %w", panels[i].Label(), o.err)
			break
		}
		if err := emit(o.r); err != nil {
			firstErr = err
			break
		}
	}
	close(done)
	wg.Wait()
	return firstErr
}
