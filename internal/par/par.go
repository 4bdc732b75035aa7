// Package par provides the one fan-out primitive the pipeline shares:
// ForEachCtx, a bounded-worker loop over an index range. The export
// pipeline and the column fill (table, core), LFR's community shards
// (sgen), and the evaluation panels and sweeps (exp) all "run fn over
// [0,n) in parallel, stop on error" through it, so the sizing rule
// (Procs), the claim order and the error and panic semantics have one
// implementation; the engine runs each level of its task plan through
// it too. Only the daemon's job queue schedules otherwise.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered at a fan-out or task boundary,
// converted into an ordinary error so one panicking unit of work
// fails its operation instead of killing the process. The goroutine
// stack of the panic site rides along for the log line — by the time
// the error surfaces, the panicking frame is long gone.
type PanicError struct {
	// Value is what was passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, captured in the
	// deferred recover.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Safe runs fn, converting a panic into a *PanicError. It is the one
// recover point the pipeline layers share: par workers, the engine's
// task runner and row-fill workers, and the service's job runner and
// job workers all isolate panics through it, so "a panic becomes one failed
// operation, never a dead process" has a single implementation.
func Safe(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Procs is the parallelism every fan-out in the pipeline sizes itself
// from: GOMAXPROCS, what the process was given — not the machine's CPU
// count, which ignores that. Goroutines beyond the Ps the runtime
// schedules on are time-sliced, not parallel, so nothing fans out
// wider, and no caller passes a bound of its own: how parallel a run is
// never changes an output byte, only wall-clock, and the GOMAXPROCS
// environment variable already says it.
func Procs() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(0) … fn(n-1) on up to Procs goroutines; at one, that
// goroutine claims the indices in the serial loop's order. Indices are
// claimed in order, and after a failure no index above it starts, while
// every index below it that was already claimed still runs: without a
// cancellation every index below the lowest failing one completes, so
// the error returned is the one the serial loop would have surfaced. A
// panicking fn is isolated: the panic is recovered into a *PanicError
// carrying the stack and reported with the same lowest-index
// discipline, so one bad index fails the fan-out instead of crashing
// the process. ForEach returns once every started fn has returned. fn
// must treat its index as the only shared state it may write (e.g. one
// output slot per index).
func ForEach(n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: ctx is checked
// before each index is claimed, so a canceled or expired context stops
// the fan-out at the next index boundary — in-flight fn calls still
// run to completion (fn itself decides whether to observe ctx), and
// ctx.Err() is reported with the same lowest-index discipline as fn
// errors. A context that cancels after the last fn returned does not
// retroactively fail the call.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(Procs(), n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errIdx   int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil && errIdx < i
				mu.Unlock()
				if stop {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				if err := Safe(func() error { return fn(i) }); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
