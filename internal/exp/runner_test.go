package exp

import (
	"bytes"
	"strings"
	"testing"

	"datasynth/internal/par/partest"
	"datasynth/internal/table"
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

func TestCollectPanels(t *testing.T) {
	partest.SetProcs(t, 2)
	rs, err := CollectPanels(runnerPanels[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("collected %d results", len(rs))
	}
	for i, r := range rs {
		if r.Panel.Seed != runnerPanels[i].Seed {
			t.Errorf("result %d out of order (seed %d)", i, r.Panel.Seed)
		}
	}
	if _, err := CollectPanels(nil); err != nil {
		t.Errorf("empty panel list: %v", err)
	}
}

// TestResultDataset: the plumbed-through assignment and edge table
// materialise as a coherent dataset.
func TestResultDataset(t *testing.T) {
	r, err := RunPanel(Panel{Generator: LFR, Size: 1200, K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeCounts["Node"] != 1200 {
		t.Errorf("node count = %d", d.NodeCounts["Node"])
	}
	if got := d.Edges["edge"].Len(); got != r.Edges {
		t.Errorf("edge count = %d, want %d", got, r.Edges)
	}
	props := d.NodeProps["Node"]
	if len(props) != 3 {
		t.Fatalf("props = %d", len(props))
	}
	value, label, score := props[0], props[1], props[2]
	for id := int64(0); id < 1200; id++ {
		v := value.Int(id)
		if v != r.Assign[id] {
			t.Fatalf("row %d: value %d, assign %d", id, v, r.Assign[id])
		}
		if want := "v0" + string('0'+byte(v)); label.String(id) != want {
			t.Fatalf("row %d: label %q, want %q", id, label.String(id), want)
		}
		if score.Float(id) != float64(v)/4 {
			t.Fatalf("row %d: score %v", id, score.Float(id))
		}
	}
	if _, err := (&Result{}).Dataset(); err == nil {
		t.Error("dataset from empty result should fail")
	}

	// The panel dataset must survive a columnar round trip under its
	// own keys, even though the edge table's internal Name is the
	// generator's.
	dir := t.TempDir()
	if err := d.WriteDirColumnar(dir); err != nil {
		t.Fatal(err)
	}
	back, err := table.OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NodeCounts["Node"] != 1200 {
		t.Errorf("round-trip node count = %d", back.NodeCounts["Node"])
	}
	if back.Edges["edge"] == nil || back.Edges["edge"].Len() != r.Edges {
		t.Errorf("round trip lost the edge table under its dataset key")
	}
}
