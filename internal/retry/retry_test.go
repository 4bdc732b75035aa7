package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// noSleep swallows delays so tests never wait on the clock.
func noSleep(ctx context.Context, d time.Duration) error { return nil }

func TestSucceedsAfterTransients(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 5, Sleep: noSleep}, func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt = %d, want %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}

func TestAttemptBudgetExhausted(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 3, Sleep: noSleep}, func(int) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Do = %v, want errBoom", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}

func TestZeroAttemptsMeansOne(t *testing.T) {
	calls := 0
	Do(context.Background(), Policy{Sleep: noSleep}, func(int) error {
		calls++
		return errBoom
	})
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

func TestContextErrorsFromFnNotRetried(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 5, Sleep: noSleep}, func(int) error {
		calls++
		return context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (a canceled job must not burn the schedule)", calls)
	}
}

func TestCanceledContextBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, Policy{Attempts: 5, Sleep: noSleep}, func(int) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times, want 0", calls)
	}
}

func TestCancellationDuringSleepReturnsLastError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Do(ctx, Policy{
		Attempts:  5,
		BaseDelay: time.Hour,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}, func(int) error {
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Do = %v, want the last fn error", err)
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	var delays []time.Duration
	Do(context.Background(), Policy{
		Attempts:  6,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  45 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}, func(int) error { return errBoom })
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		45 * time.Millisecond, 45 * time.Millisecond,
	}
	if len(delays) != len(want) {
		t.Fatalf("got %d delays (%v), want %d", len(delays), delays, len(want))
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v (all: %v)", i, delays[i], want[i], delays)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	capture := func(seed uint64) []time.Duration {
		var delays []time.Duration
		Do(context.Background(), Policy{
			Attempts:  5,
			BaseDelay: 100 * time.Millisecond,
			Jitter:    0.5,
			Seed:      seed,
			Sleep: func(ctx context.Context, d time.Duration) error {
				delays = append(delays, d)
				return nil
			},
		}, func(int) error { return errBoom })
		return delays
	}
	a, b := capture(7), capture(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different delays: %v vs %v", a, b)
		}
	}
	// Jittered delays stay within d*(1±J) of the unjittered schedule.
	base := 100 * time.Millisecond
	for i, d := range a {
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if d < lo || d > hi {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, lo, hi)
		}
		base *= 2
	}
	c := capture(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}
