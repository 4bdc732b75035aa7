// Package retry implements context-aware, capped, jittered
// exponential backoff for transient failures — the service wraps its
// cache-store commits in it so a hiccuping disk costs milliseconds,
// not a failed job. The jitter stream is seeded (splitmix64), so a
// fixed policy replays the same delay sequence: retry behaviour in
// tests is as deterministic as everything else in this codebase.
package retry

import (
	"context"
	"errors"
	"time"
)

// Policy shapes one retry loop.
type Policy struct {
	// Attempts is the total number of tries, first call included.
	// Values below 1 mean 1 (no retry).
	Attempts int
	// BaseDelay is the pause before the first retry; each subsequent
	// pause multiplies by Multiplier up to MaxDelay. 0 retries
	// immediately.
	BaseDelay time.Duration
	// MaxDelay caps a single pause. 0 means uncapped.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts; values <= 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomized (0 to 1): the
	// pause becomes d * (1 ± Jitter), drawn from the seeded stream.
	Jitter float64
	// Seed keys the jitter stream; the same seed replays the same
	// delays.
	Seed uint64
	// Sleep, if non-nil, replaces the context-aware sleep — the test
	// hook for capturing or skipping real delays.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Do calls fn until it succeeds, the attempt budget is spent or ctx is
// done. It returns nil on success and otherwise the last error fn
// produced (the context error when ctx expired before the first
// attempt). fn receives the 0-based attempt number. Context errors
// from fn itself stop the loop: a canceled job must not burn the
// backoff schedule discovering it is canceled.
func Do(ctx context.Context, p Policy, fn func(attempt int) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	rng := p.Seed ^ 0x9e3779b97f4a7c15
	delay := p.BaseDelay
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		err := fn(attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt == attempts-1 {
			break
		}
		d := delay
		if p.MaxDelay > 0 && d > p.MaxDelay {
			d = p.MaxDelay
		}
		if p.Jitter > 0 && d > 0 {
			rng = splitmix64(&rng)
			// u in [0,1): spread the pause across d*(1-J) .. d*(1+J).
			u := float64(rng>>11) / (1 << 53)
			d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*u))
		}
		if d > 0 {
			if err := sleep(ctx, d); err != nil {
				return lastErr
			}
		}
		delay = time.Duration(float64(delay) * mult)
	}
	return lastErr
}

// sleepCtx pauses for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitmix64 advances the jitter stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
