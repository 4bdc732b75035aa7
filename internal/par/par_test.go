package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"datasynth/internal/par/partest"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 100} {
		partest.SetProcs(t, procs)
		const n = 53
		var hits [n]atomic.Int32
		if err := ForEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCtxPreCanceled: an already-canceled context runs nothing
// and surfaces ctx.Err(), at every GOMAXPROCS.
func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		var ran atomic.Int32
		err := ForEachCtx(ctx, 20, func(int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: pre-canceled context still ran %d calls", procs, n)
		}
	}
}

// TestForEachCtxCancelMidRun: cancellation between indices stops the
// fan-out from claiming new work and is reported as the error.
func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEachCtx(ctx, 1000, func(i int) error {
			ran.Add(1)
			if i == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
		}
		// Serial sees exactly indices 0..3; parallel may have a few
		// in-flight claims past the cancel, but nothing like the full
		// range.
		if n := int(ran.Load()); n >= 1000 || (procs == 1 && n != 4) {
			t.Errorf("GOMAXPROCS=%d: %d calls ran after mid-run cancel", procs, n)
		}
	}
}

func TestForEachReturnsLowestError(t *testing.T) {
	// Indices 10 and 30 fail; whichever order workers hit them, the
	// reported error must be the lowest-indexed one observed — and with
	// GOMAXPROCS=1 exactly the serial loop's first error.
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		var ran atomic.Int32
		err := ForEach(50, func(i int) error {
			ran.Add(1)
			if i == 10 || i == 30 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: no error", procs)
		}
		if err.Error() != "fail at 10" && procs == 1 {
			t.Fatalf("serial error = %v", err)
		}
		if err.Error() == "fail at 30" && procs > 1 {
			// 30 can only win if 10 was never attempted — impossible:
			// indices are claimed in order, so 10 is claimed before 30.
			t.Fatalf("GOMAXPROCS=%d: higher-index error won: %v", procs, err)
		}
		if int(ran.Load()) >= 50 {
			t.Errorf("GOMAXPROCS=%d: no early stop (%d calls)", procs, ran.Load())
		}
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		err := ForEach(8, func(i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: panic must surface as an error", procs)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("GOMAXPROCS=%d: err = %T %v, want *PanicError", procs, err, err)
		}
		if pe.Value != "kaboom" {
			t.Fatalf("GOMAXPROCS=%d: PanicError.Value = %v", procs, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("GOMAXPROCS=%d: PanicError must carry the stack", procs)
		}
	}
}

func TestSafeRecoversAndPassesThrough(t *testing.T) {
	if err := Safe(func() error { return nil }); err != nil {
		t.Fatalf("Safe(ok) = %v", err)
	}
	want := errors.New("plain")
	if err := Safe(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Safe must pass plain errors through, got %v", err)
	}
	err := Safe(func() error { panic(fmt.Errorf("wrapped %d", 7)) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Safe(panic) = %T %v, want *PanicError", err, err)
	}
}
