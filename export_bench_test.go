package datasynth

// Export-throughput benchmarks on the Figure3_LFR100k dataset: the
// panel's 100k nodes / ~1M edges materialised as a property graph
// (int + string + float node columns plus the edge table) and written
// in every connector format — micro-benchmarks for work on the
// encoders; the end-to-end export numbers are the benchmark's
// (go run -C bench .):
//
//   - CSVSerial is the old one-table-at-a-time baseline shape
//     (Workers=1) on the new append encoder;
//   - CSV/JSONL/Columnar run the concurrent exporter (Workers=NumCPU);
//   - Columnar is the binary bulk-load format — no text formatting at
//     all, so it bounds what the disk path can do.
//
// Bytes/op (from b.SetBytes) measures emitted file bytes per second;
// formats differ in how many bytes they emit for the same dataset, so
// compare ns/op for end-to-end wall time and MB/s within a format.

import (
	"sync"
	"testing"

	"datasynth/internal/exp"
	"datasynth/internal/table"
)

var exportBench struct {
	once sync.Once
	d    *table.Dataset
	err  error
}

// exportBenchDataset builds the Figure3_LFR100k dataset once per
// benchmark process.
func exportBenchDataset(b *testing.B) *table.Dataset {
	exportBench.once.Do(func() {
		r, err := exp.RunPanel(exp.Panel{Generator: exp.LFR, Size: 100000, K: 16, Seed: 33})
		if err != nil {
			exportBench.err = err
			return
		}
		exportBench.d, exportBench.err = r.Dataset()
	})
	if exportBench.err != nil {
		b.Fatal(exportBench.err)
	}
	return exportBench.d
}

func benchExport(b *testing.B, format table.Format, workers int) {
	b.Helper()
	d := exportBenchDataset(b)
	dir := b.TempDir() // reused: rename-over replaces the files in place
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files, err := d.Export(dir, table.ExportOptions{Format: format, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, f := range files {
			total += f.Bytes
		}
	}
	b.SetBytes(total)
	b.ReportMetric(float64(total)/(1<<20), "MB")
}

func BenchmarkExportCSVSerial_LFR100k(b *testing.B) {
	benchExport(b, table.FormatCSV, 1)
}

func BenchmarkExportCSV_LFR100k(b *testing.B) {
	benchExport(b, table.FormatCSV, 0)
}

func BenchmarkExportJSONL_LFR100k(b *testing.B) {
	benchExport(b, table.FormatJSONL, 0)
}

func BenchmarkExportColumnar_LFR100k(b *testing.B) {
	benchExport(b, table.FormatColumnar, 0)
}

// BenchmarkOpenColumnar_LFR100k measures the read side of the bulk
// path: loading the whole columnar dataset back into memory.
func BenchmarkOpenColumnar_LFR100k(b *testing.B) {
	d := exportBenchDataset(b)
	dir := b.TempDir()
	files, err := d.Export(dir, table.ExportOptions{Format: table.FormatColumnar})
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, f := range files {
		total += f.Bytes
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.OpenColumnar(dir); err != nil {
			b.Fatal(err)
		}
	}
}
