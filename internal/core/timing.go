package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"datasynth/internal/depgraph"
	"datasynth/internal/table"
)

// Plan observability: every Generate records per-task wall time and
// derives the critical path of the schema — the dependency chain whose
// cumulative duration bounds how fast the plan can possibly run on
// infinitely many cores. The report is what drives sharding
// decisions: a task sitting on the critical path is worth
// parallelising internally (sharded LFR) when that measures as a win;
// a task off it only costs idle time.

// TaskTiming is one task's measurement within a run.
type TaskTiming struct {
	// ID is the task identifier (depgraph.Task.ID()).
	ID string
	// Kind is the task's pipeline stage.
	Kind depgraph.TaskKind
	// Start is the task's start offset from the beginning of the run.
	Start time.Duration
	// Duration is the task's wall time.
	Duration time.Duration
	// Critical marks tasks on the run's critical path.
	Critical bool
	// Note is a free-form per-task annotation (match tasks report their
	// SBM-Part per-pass breakdown here, so a refined match shows where
	// its critical-path time goes; a property task whose column was
	// deferred names the export file whose FileStat.Fill carries its
	// time: "deferred → export:nodes_Message.csv").
	Note string
}

// RunReport summarises one Generate execution, plus the export that
// followed it when the engine's Export ran.
type RunReport struct {
	// Total is the wall time of the whole plan execution.
	Total time.Duration
	// Timings holds one entry per task, in plan (topological) order.
	Timings []TaskTiming
	// CriticalPath lists the task IDs of the longest-duration
	// dependency chain, in execution order. After Export it gains a
	// final "export:<file>" hop for the slowest exported file.
	CriticalPath []string
	// CriticalPathTime is the summed duration along CriticalPath — the
	// lower bound on plan wall time at unbounded parallelism. Export
	// extends it by the slowest file: files write concurrently, so the
	// largest single file is the export floor.
	CriticalPathTime time.Duration

	// ExportTotal is the export wall time (zero until Engine.Export
	// runs) and ExportFiles the per-file breakdown.
	ExportTotal time.Duration
	ExportFiles []table.FileStat
	// EndToEnd is Total + ExportTotal: the generate→export pipeline
	// wall time the -timings report leads with.
	EndToEnd time.Duration
}

// addExport folds an export pass into the report. Export depends on
// every task, so the critical path extends by the slowest file (the
// floor of the concurrent write phase), and EndToEnd accumulates the
// full export wall.
func (r *RunReport) addExport(files []table.FileStat, wall time.Duration) {
	r.ExportTotal += wall
	r.ExportFiles = append(r.ExportFiles, files...)
	r.EndToEnd = r.Total + r.ExportTotal
	slowest := -1
	for i := range files {
		if slowest == -1 || files[i].Duration > files[slowest].Duration {
			slowest = i
		}
	}
	if slowest >= 0 {
		r.CriticalPath = append(r.CriticalPath, "export:"+files[slowest].Name)
		r.CriticalPathTime += files[slowest].Duration
	}
}

// buildReport computes the critical path from per-task durations.
// plan.Deps[i] only references indices < i (topological order), so a
// single forward scan computes the longest cumulative-duration chain
// ending at every task.
func buildReport(plan *depgraph.Plan, timings []TaskTiming, total time.Duration) *RunReport {
	n := len(plan.Tasks)
	finish := make([]time.Duration, n) // longest chain duration ending at i
	pred := make([]int, n)             // predecessor on that chain
	bestEnd, bestTime := -1, time.Duration(-1)
	for i := 0; i < n; i++ {
		pred[i] = -1
		var start time.Duration
		for _, d := range plan.Deps[i] {
			if finish[d] > start {
				start = finish[d]
				pred[i] = d
			}
		}
		finish[i] = start + timings[i].Duration
		if finish[i] > bestTime {
			bestTime = finish[i]
			bestEnd = i
		}
	}
	var path []string
	for i := bestEnd; i >= 0; i = pred[i] {
		timings[i].Critical = true
		path = append(path, timings[i].ID)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return &RunReport{
		Total:            total,
		Timings:          timings,
		CriticalPath:     path,
		CriticalPathTime: bestTime,
	}
}

// String renders the report as a fixed-width table, slowest tasks
// first, with critical-path tasks marked by '*'.
func (r *RunReport) String() string {
	if r == nil || len(r.Timings) == 0 {
		return "run report: no tasks"
	}
	rows := make([]TaskTiming, len(r.Timings))
	copy(rows, r.Timings)
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Duration > rows[b].Duration })
	var b strings.Builder
	if r.ExportTotal > 0 {
		fmt.Fprintf(&b, "run: end-to-end %v (plan %v + export %v), critical path %v over %d steps\n",
			r.EndToEnd.Round(time.Microsecond), r.Total.Round(time.Microsecond),
			r.ExportTotal.Round(time.Microsecond), r.CriticalPathTime.Round(time.Microsecond),
			len(r.CriticalPath))
	} else {
		fmt.Fprintf(&b, "run: total %v, critical path %v over %d/%d tasks\n",
			r.Total.Round(time.Microsecond), r.CriticalPathTime.Round(time.Microsecond),
			len(r.CriticalPath), len(r.Timings))
	}
	for _, t := range rows {
		mark := " "
		if t.Critical {
			mark = "*"
		}
		detail := ""
		if t.Note != "" {
			detail = "  [" + t.Note + "]"
		}
		fmt.Fprintf(&b, "%s %-40s %12v  (start +%v)%s\n", mark, t.ID,
			t.Duration.Round(time.Microsecond), t.Start.Round(time.Microsecond), detail)
	}
	for _, f := range r.ExportFiles {
		fill := ""
		if f.Fill > 0 {
			fill = fmt.Sprintf(" (fill %v)", f.Fill.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  %-40s %12v%s  (%d bytes)\n", "export:"+f.Name,
			f.Duration.Round(time.Microsecond), fill, f.Bytes)
	}
	return b.String()
}
