package exp

import (
	"context"
	"fmt"

	"datasynth/internal/par"
)

// Parallel panel fan-out. The panels of a figure are fully independent
// — each owns its seed and every RNG stream derives from it — so they
// can run concurrently without touching the per-panel determinism
// contract: RunPanels produces results byte-identical to the serial
// RunPanel loop at any GOMAXPROCS, and delivers them to the caller in
// submission order as soon as each prefix of the panel list has
// finished (streaming, not batch). The timing experiment (RunTiming)
// deliberately does NOT go through this fan-out: its panels run one at a
// time so the measured wall times stay the paper's single-thread,
// single-stream numbers — the matcher is serial by construction.

// RunPanels runs the panels under par.ForEachCtx and calls emit once
// per panel, in submission order, from the calling goroutine. Each panel
// has a result slot and a done channel; the caller waits on them in
// order. The first panel error (in submission order) stops the stream,
// and a non-nil error from emit does the same: either cancels the
// context, so no further panel is claimed, and RunPanels returns only
// after every started panel has finished. Panels are claimed in order,
// so every panel before a failure completes, as in the serial loop;
// panels after it may have started, and their results are discarded.
func RunPanels(panels []Panel, emit func(*Result) error) error {
	n := len(panels)
	results, errs := make([]*Result, n), make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// Each panel's error is read from its slot: ForEachCtx's own
		// return adds only the cancellation RunPanels asked for.
		_ = par.ForEachCtx(ctx, n, func(i int) error {
			defer close(done[i])
			// par.Safe converts a panicking panel (a generator bug on one
			// parameter point) into that panel's error, so the figure run
			// fails cleanly in submission order instead of taking down
			// the whole experiment binary.
			errs[i] = par.Safe(func() error {
				var err error
				results[i], err = RunPanel(panels[i])
				return err
			})
			return errs[i]
		})
	}()
	defer func() {
		cancel()
		<-finished
	}()

	for i := range n {
		<-done[i]
		if errs[i] != nil {
			return fmt.Errorf("panel %s: %w", panels[i].Label(), errs[i])
		}
		if err := emit(results[i]); err != nil {
			return err
		}
	}
	return nil
}
