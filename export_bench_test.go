package datasynth

// Export-throughput benchmarks on an LFR-100k dataset: 100k nodes /
// ~1M edges with int + string + float node columns, generated from a
// schema by the engine the CLI runs, and written in every connector
// format — micro-benchmarks for work on the encoders; the end-to-end
// export numbers are the benchmark's (go run -C bench .):
//
//   - CSVSerial is the old one-table-at-a-time baseline shape
//     (GOMAXPROCS=1) on the new append encoder;
//   - CSV/JSONL/Columnar run the concurrent exporter (GOMAXPROCS as
//     given, e.g. by -cpu);
//   - Columnar is the binary bulk-load format — no text formatting at
//     all, so it bounds what the disk path can do.
//
// Bytes/op (from b.SetBytes) measures emitted file bytes per second;
// formats differ in how many bytes they emit for the same dataset, so
// compare ns/op for end-to-end wall time and MB/s within a format.

import (
	"sync"
	"testing"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/par/partest"
	"datasynth/internal/table"
)

var exportBench struct {
	once sync.Once
	d    *table.Dataset
	err  error
}

// exportBenchSchema is the LFR-100k dataset: one node type with an int,
// a string and a float column, and an LFR edge type matched on the string.
const exportBenchSchema = `graph g { seed = 33
	node Node { count = 100000
		property value : int = uniform-int(lo=0, hi=15)
		property tag : string = categorical(values="v00|v01|v02|v03|v04|v05|v06|v07|v08|v09|v10|v11|v12|v13|v14|v15")
		property score : float = uniform-float(lo=0, hi=1) }
	edge links : Node *-* Node { structure = lfr()
		correlate tag homophily 0.8 } }`

// exportBenchDataset generates the LFR-100k dataset once per benchmark
// process, with every column filled, so the benchmarks time the
// encoders alone.
func exportBenchDataset(b *testing.B) *table.Dataset {
	exportBench.once.Do(func() {
		s, err := dsl.Parse(exportBenchSchema)
		if err != nil {
			exportBench.err = err
			return
		}
		d, err := core.New(s).Generate()
		if err != nil {
			exportBench.err = err
			return
		}
		for _, pt := range d.NodeProps["Node"] {
			if err := pt.Materialize(); err != nil {
				exportBench.err = err
				return
			}
		}
		exportBench.d = d
	})
	if exportBench.err != nil {
		b.Fatal(exportBench.err)
	}
	return exportBench.d
}

func benchExport(b *testing.B, format table.Format) {
	b.Helper()
	d := exportBenchDataset(b)
	dir := b.TempDir() // reused: rename-over replaces the files in place
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files, err := d.Export(dir, table.ExportOptions{Format: format})
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
	partest.SetProcs(b, 1)
	benchExport(b, table.FormatCSV)
}

func BenchmarkExportCSV_LFR100k(b *testing.B) {
	benchExport(b, table.FormatCSV)
}

func BenchmarkExportJSONL_LFR100k(b *testing.B) {
	benchExport(b, table.FormatJSONL)
}

func BenchmarkExportColumnar_LFR100k(b *testing.B) {
	benchExport(b, table.FormatColumnar)
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

// benchDeferred measures what a column nobody reads costs to export, on
// a schema whose one large file has 1 M rows: "stored" fills the columns
// into memory first (a reader touching them — the engine's own path
// before columns could be deferred) and then encodes them, "deferred"
// lets the row kernel fill each chunk as it encodes it. Generation is
// outside the timer; ns/row and B/op are the fill and the encode
// together, on one P.
func benchDeferred(b *testing.B, src, file string) {
	partest.SetProcs(b, 1)
	s, err := dsl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"stored", "deferred"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			var rows int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := core.New(s).Generate()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, props := range []map[string][]*table.PropertyTable{d.NodeProps, d.EdgeProps} {
					for _, pts := range props {
						for _, pt := range pts {
							if rows = max(rows, pt.Len()); mode == "stored" {
								if err := pt.Materialize(); err != nil {
									b.Fatal(err)
								}
							}
						}
					}
				}
				files, err := d.Export(dir, table.ExportOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range files {
					if f.Name == file {
						b.SetBytes(f.Bytes)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rows), "ns/row")
		})
	}
}

// BenchmarkExportTextNode is the running example's Message file: a
// coded column and a text column of 3–12 words.
func BenchmarkExportTextNode(b *testing.B) {
	benchDeferred(b, `graph g { seed = 1 node Message { count = 1000000
		property topic : string = categorical(dict="topics")
		property text : string = text(min=3, max=12) } }`, "nodes_Message.csv")
}

// BenchmarkExportEdgeDate is its knows file: the endpoints and a date
// past both endpoints' dates, gathered through the edge table.
func BenchmarkExportEdgeDate(b *testing.B) {
	benchDeferred(b, `graph g { seed = 1
		node Person { count = 125000 property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01") }
		edge knows : Person *-* Person { structure = erdos-renyi(edgesPerNode=8)
			property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate) } }`, "edges_knows.csv")
}
