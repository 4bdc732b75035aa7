package exp

import (
	"bytes"
	"strings"
	"testing"

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

// TestRunPanelsError: a failing panel aborts the stream at its
// submission position, like the serial loop; earlier panels still
// emit, later ones never reach the callback, and nothing deadlocks.
func TestRunPanelsError(t *testing.T) {
	panels := []Panel{
		{Generator: LFR, Size: 1000, K: 4, Seed: 1},
		{Generator: LFR, Size: 1000, K: 0, Seed: 2}, // invalid: K < 1
		{Generator: LFR, Size: 1000, K: 4, Seed: 3},
	}
	partest.SetProcs(t, 4)
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
}

// TestRunPanelsEmitError: the consumer can abort the stream.
func TestRunPanelsEmitError(t *testing.T) {
	partest.SetProcs(t, 2)
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
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }
