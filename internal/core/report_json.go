package core

import (
	"encoding/json"
	"time"
)

// JSON serialization of the run report, consumed by the generation
// service's job-status endpoint (GET /v1/jobs/{id}). Durations are
// emitted twice: machine-readable nanoseconds (_ns suffix) and the
// human time.Duration rendering — so dashboards can plot and humans
// can read the same payload. The encoding is hand-shaped rather than
// relying on struct tags because time.Duration's default JSON form
// (a bare int) is ambiguous at a glance.

type taskTimingJSON struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
	Duration   string `json:"duration"`
	Critical   bool   `json:"critical,omitempty"`
	Note       string `json:"note,omitempty"`
}

type fileStatJSON struct {
	Name       string `json:"name"`
	Bytes      int64  `json:"bytes"`
	DurationNS int64  `json:"duration_ns"`
	FillNS     int64  `json:"fill_ns,omitempty"`
}

// MarshalJSON renders the report with explicit-unit duration fields.
func (r *RunReport) MarshalJSON() ([]byte, error) {
	timings := make([]taskTimingJSON, len(r.Timings))
	for i, t := range r.Timings {
		timings[i] = taskTimingJSON{
			ID:         t.ID,
			Kind:       t.Kind.String(),
			StartNS:    int64(t.Start),
			DurationNS: int64(t.Duration),
			Duration:   t.Duration.Round(time.Microsecond).String(),
			Critical:   t.Critical,
			Note:       t.Note,
		}
	}
	files := make([]fileStatJSON, len(r.ExportFiles))
	for i, f := range r.ExportFiles {
		files[i] = fileStatJSON{Name: f.Name, Bytes: f.Bytes, DurationNS: int64(f.Duration), FillNS: int64(f.Fill)}
	}
	out := struct {
		TotalNS        int64            `json:"total_ns"`
		Total          string           `json:"total"`
		CriticalPath   []string         `json:"critical_path"`
		CriticalPathNS int64            `json:"critical_path_ns"`
		Timings        []taskTimingJSON `json:"timings"`
		ExportTotalNS  int64            `json:"export_total_ns,omitempty"`
		ExportFiles    []fileStatJSON   `json:"export_files,omitempty"`
		EndToEndNS     int64            `json:"end_to_end_ns,omitempty"`
		EndToEnd       string           `json:"end_to_end,omitempty"`
	}{
		TotalNS:        int64(r.Total),
		Total:          r.Total.Round(time.Microsecond).String(),
		CriticalPath:   r.CriticalPath,
		CriticalPathNS: int64(r.CriticalPathTime),
		Timings:        timings,
		ExportTotalNS:  int64(r.ExportTotal),
		ExportFiles:    files,
		EndToEndNS:     int64(r.EndToEnd),
	}
	if r.EndToEnd > 0 {
		out.EndToEnd = r.EndToEnd.Round(time.Microsecond).String()
	}
	return json.Marshal(out)
}
