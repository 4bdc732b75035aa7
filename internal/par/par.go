// Package par provides the one concurrency primitive the outer
// pipeline layers share: a bounded-worker fan-out over an index range.
// The export pipeline (table) and the evaluation sweeps (exp) each
// need "run fn over [0,n) in parallel, stop on error" — keeping a single
// implementation pins the sizing rule (Procs) and the error-propagation
// semantics in one place.
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
// task scheduler and row-fill workers, and the service's job runner
// all isolate panics through it, so "a panic becomes one failed
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

// Workers runs fn(0) … fn(workers-1), one goroutine per worker, and
// waits for all of them to finish. Each worker runs under Safe; after
// the pool drains, the first recovered panic (lowest worker index) is
// re-raised on the caller's goroutine as its original *PanicError.
// This keeps the call transparent for the generator/matcher worker
// pools, whose workers write only worker-private or index-disjoint
// state and cannot fail with ordinary errors: callers keep their plain
// signatures, while a worker panic is transported to a goroutine with
// a recover boundary above it (engine runTask, service runJob) — one
// crashing worker fails its task, never the process. workers <= 1
// calls fn(0) inline on the caller's goroutine.
func Workers(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var (
		mu       sync.Mutex
		firstErr error
		errW     int
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Safe(func() error { fn(w); return nil }); err != nil {
				mu.Lock()
				if firstErr == nil || w < errW {
					firstErr, errW = err, w
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		panic(firstErr)
	}
}

// ForEach runs fn(0) … fn(n-1) on up to Procs goroutines (one runs the
// plain serial loop). Indices are claimed in order; after the first
// failure no new index is claimed, in-flight calls finish, and the error
// of the lowest-indexed failure observed is returned — matching what
// the serial loop would have surfaced. A panicking fn is isolated: the
// panic is recovered into a *PanicError carrying the stack and
// reported with the same lowest-index discipline, so one bad index
// fails the fan-out instead of crashing the process. fn must treat
// its index as the only shared state it may write (e.g. one output
// slot per index).
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
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := i
			if err := Safe(func() error { return fn(i) }); err != nil {
				return err
			}
		}
		return nil
	}
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
				stop := firstErr != nil
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
