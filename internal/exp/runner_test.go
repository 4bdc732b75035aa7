package exp

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"datasynth/internal/par/partest"
)

// cdfBytes renders a result's full CDF series — the exact artifact the
// eval CLI writes to disk — so equality below is byte equality of the
// output files, not just metric equality.
func cdfBytes(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCDF(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

var runnerPanels = []Panel{
	{Generator: LFR, Size: 2000, K: 4, Seed: 31},
	{Generator: LFR, Size: 1500, K: 8, Seed: 32},
	{Generator: RMAT, Size: 10, K: 4, Seed: 33},
	{Generator: RMAT, Size: 9, K: 8, Seed: 34},
	{Generator: LFR, Size: 1000, K: 2, Seed: 35},
}

// TestRunPanelsMatchesSerial is the panel-level determinism contract:
// the pooled runner must stream results identical to the serial
// RunPanel loop — same artifacts, same submission order — at any
// GOMAXPROCS.
func TestRunPanelsMatchesSerial(t *testing.T) {
	want := make([]string, len(runnerPanels))
	for i, p := range runnerPanels {
		r, err := RunPanel(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cdfBytes(t, r)
	}
	for _, procs := range []int{1, 2, 4, 16} {
		partest.SetProcs(t, procs)
		var got []string
		err := RunPanels(runnerPanels, func(r *Result) error {
			got = append(got, cdfBytes(t, r))
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d: panel %d (%s) artifact differs from serial run",
					procs, i, runnerPanels[i].Label())
			}
		}
	}
}

// checkGoroutinesBack checks, once RunPanels has returned, that no
// goroutine is still inside a panel and that the goroutine count is back
// to base. A goroutine that has signalled its end may still be on its
// way out, so the count gets a second to settle; a panel still running
// has no such excuse.
func checkGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "exp.RunPanel(") {
		t.Errorf("a panel is still running after RunPanels returned:\n%s", stacks)
	}
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > base && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if got > base {
		t.Errorf("%d goroutines after RunPanels returned, %d before", got, base)
	}
}

// TestRunPanelsError: a failing panel aborts the stream at its
// submission position, like the serial loop; earlier panels still
// emit, later ones never reach the callback, nothing deadlocks, and
// every panel goroutine is gone once RunPanels returns.
func TestRunPanelsError(t *testing.T) {
	panels := []Panel{
		{Generator: LFR, Size: 1000, K: 4, Seed: 1},
		{Generator: LFR, Size: 1000, K: 0, Seed: 2}, // invalid: K < 1
		{Generator: LFR, Size: 1000, K: 4, Seed: 3},
	}
	partest.SetProcs(t, 4)
	base := runtime.NumGoroutine()
	var emitted int
	err := RunPanels(panels, func(r *Result) error {
		emitted++
		return nil
	})
	if err == nil {
		t.Fatal("invalid panel did not fail")
	}
	if !strings.Contains(err.Error(), panels[1].Label()) {
		t.Errorf("error %v does not name the failing panel", err)
	}
	if emitted != 1 {
		t.Errorf("emitted %d results before the failure, want 1", emitted)
	}
	checkGoroutinesBack(t, base)
}

// TestRunPanelsEmitError: the consumer can abort the stream, and every
// panel goroutine is gone once RunPanels returns.
func TestRunPanelsEmitError(t *testing.T) {
	partest.SetProcs(t, 2)
	base := runtime.NumGoroutine()
	var emitted int
	err := RunPanels(runnerPanels[:3], func(r *Result) error {
		emitted++
		if emitted == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if emitted != 2 {
		t.Errorf("emitted = %d, want 2", emitted)
	}
	checkGoroutinesBack(t, base)
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }
