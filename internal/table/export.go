package table

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	"datasynth/internal/faultfs"
	"datasynth/internal/par"
	"datasynth/internal/store"
)

// Concurrent, atomic dataset export. Tables are independent once
// generated, so the export fan-out writes one file per table, up to
// GOMAXPROCS at a time. Every file is staged under its store.Dir temp
// name and the set commits, file by file, only after every table
// succeeded — a failed export never leaves a partial directory, and
// the bytes of every file are identical at any GOMAXPROCS (each
// goroutine owns its file end to end; no output interleaves).

// Format selects the on-disk dataset encoding.
type Format int

// Supported export formats.
const (
	// FormatCSV writes one CSV per type (nodes_<T>.csv, edges_<T>.csv),
	// the bulk-loader layout. The zero value, so it is the default.
	FormatCSV Format = iota
	// FormatJSONL writes one JSON object per row (*.jsonl).
	FormatJSONL
	// FormatColumnar writes the binary columnar format (*.dsc) for bulk
	// loads; see columnar.go for the layout.
	FormatColumnar
)

// String returns the CLI spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatJSONL:
		return "jsonl"
	case FormatColumnar:
		return "columnar"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Ext returns the file extension of the format, dot included.
func (f Format) Ext() string {
	switch f {
	case FormatJSONL:
		return ".jsonl"
	case FormatColumnar:
		return ".dsc"
	default:
		return ".csv"
	}
}

// ContentType returns the HTTP media type a file of the format should
// be served under. The generation service streams committed export
// files verbatim — no re-encoding on the serve path — so the media
// type is the only transformation between cache dir and response.
func (f Format) ContentType() string {
	switch f {
	case FormatJSONL:
		// The de-facto JSON-lines type; one JSON object per line.
		return "application/jsonl; charset=utf-8"
	case FormatColumnar:
		return "application/octet-stream"
	default:
		return "text/csv; charset=utf-8"
	}
}

// NodeFileName returns the file name a node type exports to in the
// given format — the single source of naming truth shared by the
// export pipeline and anything serving a committed export directory.
func NodeFileName(typeName string, f Format) string {
	return "nodes_" + typeName + f.Ext()
}

// EdgeFileName returns the file name an edge type exports to.
func EdgeFileName(typeName string, f Format) string {
	return "edges_" + typeName + f.Ext()
}

// ParseFormat parses a CLI format name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "csv":
		return FormatCSV, nil
	case "jsonl":
		return FormatJSONL, nil
	case "columnar", "dsc":
		return FormatColumnar, nil
	default:
		return 0, fmt.Errorf("table: unknown export format %q (want csv, jsonl or columnar)", s)
	}
}

// ExportOptions configures Dataset.Export.
type ExportOptions struct {
	// Format selects the encoding (default CSV).
	Format Format
	// FS abstracts the filesystem for fault-injection tests; nil means
	// the real one. Every disk touch of the export (create, write,
	// stat, rename, cleanup) goes through it, so tests can crash the
	// two-phase commit at any step.
	FS faultfs.FS
	// Digest asks for the SHA-256 of every file, taken from the
	// encoder's buffers as they are written (FileStat.SHA256). The
	// generation service sets it for its manifests; hashing costs about
	// a second per gigabyte, so nothing else does.
	Digest bool
}

// FileStat reports one exported file.
type FileStat struct {
	// Name is the file name within the export directory.
	Name string
	// Bytes is the number of bytes the encoder wrote to the file.
	Bytes int64
	// Duration is the wall time spent encoding and writing the file.
	Duration time.Duration
	// Fill is the part of Duration spent filling the file's deferred
	// columns (see "Deferred columns" in the package doc) — generation
	// that runs inside the export; zero when every column was stored.
	Fill time.Duration
	// SHA256 is the hex digest of those bytes when ExportOptions.Digest
	// asked for it, else empty. It is what the encoder produced, not
	// what a later read of the file returns.
	SHA256 string
}

// sink is the one writer under every exported file. It counts the bytes
// the encoder hands it, stops the table at the first flush after ctx is
// done, and, when a digest was asked for, hashes each buffer while it
// is still hot from being encoded. The table writers also leave it the
// time they spent filling deferred columns (noteFill).
type sink struct {
	ctx   context.Context
	w     io.Writer
	bytes int64
	sum   hash.Hash // nil unless ExportOptions.Digest
	fill  time.Duration
}

// noteFill reports the time a table writer spent in deferred fills to
// the export's sink; any other writer has nowhere to put it.
func noteFill(w io.Writer, d time.Duration) {
	if s, ok := w.(*sink); ok {
		s.fill += d
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := s.w.Write(p)
	s.bytes += int64(n)
	if s.sum != nil {
		s.sum.Write(p[:n])
	}
	return n, err
}

// digest returns the hex SHA-256 of what was written, "" if not asked.
func (s *sink) digest() string {
	if s.sum == nil {
		return ""
	}
	return hex.EncodeToString(s.sum.Sum(nil))
}

// exportJob is one file of an export: a name plus a writer closure.
type exportJob struct {
	file  string
	write func(io.Writer) error
}

// exportJobs enumerates the dataset's files in deterministic order:
// node types sorted by name, then edge types sorted by name.
func (d *Dataset) exportJobs(f Format) []exportJob {
	nodeTypes := slices.Sorted(maps.Keys(d.NodeCounts))
	edgeTypes := slices.Sorted(maps.Keys(d.Edges))

	jobs := make([]exportJob, 0, len(nodeTypes)+len(edgeTypes))
	for _, t := range nodeTypes {
		t, props, count := t, d.NodeProps[t], d.NodeCounts[t]
		var write func(io.Writer) error
		switch f {
		case FormatJSONL:
			write = func(w io.Writer) error { return WriteNodeJSONL(w, t, props) }
		case FormatColumnar:
			write = func(w io.Writer) error { return WriteNodeColumnar(w, t, count, props) }
		default:
			write = func(w io.Writer) error { return WriteNodeCSV(w, t, props) }
		}
		jobs = append(jobs, exportJob{file: NodeFileName(t, f), write: write})
	}
	for _, t := range edgeTypes {
		t, et, props := t, d.Edges[t], d.EdgeProps[t]
		// The dataset key is the authoritative edge type; if the table
		// still carries its generator-internal name, export a renamed
		// shallow view so formats that embed the name (JSONL labels,
		// the columnar header) agree with the file name and the key
		// survives an OpenColumnar round trip.
		if et.Name != t {
			et = &EdgeTable{Name: t, Tail: et.Tail, Head: et.Head}
		}
		var write func(io.Writer) error
		switch f {
		case FormatJSONL:
			write = func(w io.Writer) error { return WriteEdgeJSONL(w, et, props) }
		case FormatColumnar:
			write = func(w io.Writer) error { return WriteEdgeColumnar(w, et, props) }
		default:
			write = func(w io.Writer) error { return WriteEdgeCSV(w, et, props) }
		}
		jobs = append(jobs, exportJob{file: EdgeFileName(t, f), write: write})
	}
	return jobs
}

// Export writes the dataset into dir in the requested format, up to
// GOMAXPROCS tables at a time. The export is all-or-nothing:
// every file is staged as a temp file first and the set renames into
// place only after all tables encoded successfully, so an encoding or
// write error — ragged property columns, a full disk — leaves no
// partial files behind. Returns one FileStat per file in deterministic
// (sorted nodes, then sorted edges) order.
func (d *Dataset) Export(dir string, opt ExportOptions) ([]FileStat, error) {
	return d.ExportCtx(context.Background(), dir, opt)
}

// ExportCtx is Export with cooperative cancellation: ctx is checked
// before the directory is touched, before each file job starts, on
// every flush of a table's encoder (about 48 KiB), and before the
// commit phase — a canceled or expired context aborts with every temp
// file removed and (if ExportCtx created it) the directory gone,
// exactly like any other export failure. The all-or-nothing guarantee
// is unchanged: cancellation never commits a partial set.
func (d *Dataset) ExportCtx(ctx context.Context, dir string, opt ExportOptions) ([]FileStat, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fsys := faultfs.OrOS(opt.FS)
	jobs := d.exportJobs(opt.Format)
	if len(jobs) == 0 {
		return nil, fsys.MkdirAll(dir, 0o755)
	}
	_, statErr := fsys.Stat(dir)
	createdDir := os.IsNotExist(statErr)
	out, err := store.Open(dir, fsys, nil)
	if err != nil {
		return nil, err
	}
	// abort drops the temps of jobs[from:] and, if this export created
	// the directory, the directory — best effort: Remove fails
	// (harmlessly) on a missing temp or a non-empty directory.
	abort := func(from int) {
		for _, j := range jobs[from:] {
			fsys.Remove(out.Temp(j.file))
		}
		if createdDir {
			fsys.Remove(dir)
		}
	}

	stats := make([]FileStat, len(jobs))
	err = par.ForEachCtx(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		start := time.Now()
		tmp := out.Temp(j.file)
		f, err := fsys.Create(tmp)
		if err != nil {
			return err
		}
		dst := sink{ctx: ctx, w: f}
		if opt.Digest {
			dst.sum = sha256.New()
		}
		err = j.write(&dst)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("table: writing %s: %w", j.file, err)
		}
		stats[i] = FileStat{Name: j.file, Bytes: dst.bytes, Duration: time.Since(start), Fill: dst.fill, SHA256: dst.digest()}
		return nil
	})
	if err == nil {
		// A deadline that expired after the last file finished but before
		// the commit must still abort: committing past the deadline would
		// make the cancellation guarantee depend on scheduling luck.
		err = ctx.Err()
	}
	if err != nil {
		abort(0)
		return nil, err
	}
	// Commit phase: every table encoded cleanly; publish the staged set.
	// Should a commit itself fail (exotic: the target name is occupied
	// by a directory, the dir entry cannot be written),
	// already-committed files stay — they may be the only remaining
	// copy of their table when re-exporting over an existing dataset —
	// and only the unpublished temps are dropped.
	for i, j := range jobs {
		if err := out.Commit(out.Temp(j.file), j.file); err != nil {
			abort(i)
			return nil, fmt.Errorf("table: committing %s: %w", j.file, err)
		}
	}
	return stats, nil
}
