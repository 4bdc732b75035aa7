package core

import (
	"context"
	"time"

	"datasynth/internal/table"
)

// Export writes the generated dataset to dir in the engine's
// ExportFormat and folds the export wall time into the run report — so
// after Generate+Export the reported critical path covers the whole
// generate→structure→match→export pipeline, not just the in-memory
// half. The write is concurrent (table by table, up to GOMAXPROCS at
// once) and atomic (temp files + rename; a failure leaves no partial
// directory); see table.(*Dataset).Export.
func (e *Engine) Export(d *table.Dataset, dir string) error {
	return e.ExportCtx(context.Background(), d, dir)
}

// ExportCtx is Export under a context: cancellation aborts the write
// within one encoder flush (and before the commit) with all temp files
// cleaned up, via table.(*Dataset).ExportCtx. The generation service uses this
// to put its per-job deadline over the export leg, not just generation.
func (e *Engine) ExportCtx(ctx context.Context, d *table.Dataset, dir string) error {
	start := time.Now()
	files, err := d.ExportCtx(ctx, dir, table.ExportOptions{Format: e.ExportFormat, FS: e.ExportFS, Digest: e.ExportDigest})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	e.reportMu.Lock()
	if e.report != nil {
		e.report.addExport(files, wall)
	}
	e.reportMu.Unlock()
	e.logf("export: %d %s files in %v -> %s", len(files), e.ExportFormat, wall, dir)
	return nil
}
