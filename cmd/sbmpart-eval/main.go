// Command sbmpart-eval regenerates the paper's evaluation artifacts:
//
//	sbmpart-eval -figure 3            # Figure 3 panels (CDF TSVs + plots)
//	sbmpart-eval -figure 4            # Figure 4 panels
//	sbmpart-eval -table 1             # Table 1 (paper matrix + measured)
//	sbmpart-eval -timing              # SBM-Part timing vs RMAT scale
//	sbmpart-eval -figure 3 -full      # paper-scale sizes (LFR-1M, RMAT-22)
//	sbmpart-eval -all                 # everything at default scale
//
// CDF series are written as TSV files under -out (default ./results),
// one per panel, plus ASCII plots and a summary table on stdout.
//
// Figure panels and sweep points are independent, so they run on a
// GOMAXPROCS-wide worker pool with results streamed in panel order;
// every emitted artifact is byte-identical to a serial run. The timing
// experiment (-timing) ignores the pool and stays a single-thread,
// single-stream measurement.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"datasynth/internal/exp"
)

func main() {
	figure := flag.Int("figure", 0, "regenerate figure 3 or 4")
	tableNo := flag.Int("table", 0, "regenerate table 1 (capability matrix)")
	timing := flag.Bool("timing", false, "run the SBM-Part timing experiment")
	musweep := flag.Bool("musweep", false, "run the structure-sensitivity sweep (fidelity vs LFR mixing)")
	bipartite := flag.Bool("bipartite", false, "run the bipartite SBM-Part fidelity panels")
	passes := flag.Int("passes", 0, "re-streaming refinement passes for figure panels")
	all := flag.Bool("all", false, "run every experiment")
	full := flag.Bool("full", false, "use the paper's full sizes (LFR-1M, RMAT-22); slow")
	out := flag.String("out", "results", "output directory for TSV series")
	capN := flag.Int64("capn", 20000, "graph size for the capability measurements")
	flag.Parse()

	ran := false
	if *all || *figure == 3 {
		ran = true
		if err := runFigure(3, withPasses(exp.Figure3Panels(*full), *passes), *out); err != nil {
			fatal(err)
		}
	}
	if *all || *figure == 4 {
		ran = true
		if err := runFigure(4, withPasses(exp.Figure4Panels(*full), *passes), *out); err != nil {
			fatal(err)
		}
	}
	if *all || *musweep {
		ran = true
		if err := runMuSweep(*out); err != nil {
			fatal(err)
		}
	}
	if *all || *bipartite {
		ran = true
		if err := runBipartite(*out); err != nil {
			fatal(err)
		}
	}
	if *all || *tableNo == 1 {
		ran = true
		if err := runTable1(*capN, *out); err != nil {
			fatal(err)
		}
	}
	if *all || *timing {
		ran = true
		scales := []int64{12, 14, 16, 18}
		if *full {
			scales = append(scales, 20, 22)
		}
		if err := runTiming(scales, *out); err != nil {
			fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func withPasses(panels []exp.Panel, passes int) []exp.Panel {
	for i := range panels {
		panels[i].Passes = passes
	}
	return panels
}

func runMuSweep(out string) error {
	fmt.Println("== Structure sensitivity: fidelity vs LFR mixing parameter ==")
	mus := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	pts, err := exp.RunMuSweep(20000, 16, mus, 7)
	if err != nil {
		return err
	}
	if err := exp.WriteMuSweep(os.Stdout, pts); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "musweep.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return exp.WriteMuSweep(f, pts)
}

// runBipartite measures the bipartite SBM-Part variation at a few
// sizes.
func runBipartite(out string) error {
	fmt.Println("== Bipartite SBM-Part: fidelity of the two-domain matching ==")
	panels := []exp.Panel{
		{Size: 10000, K: 8, Seed: 51},
		{Size: 20000, K: 16, Seed: 52},
		{Size: 40000, K: 16, Seed: 53},
	}
	rs := make([]*exp.BipartiteResult, 0, len(panels))
	for _, p := range panels {
		r, err := exp.RunBipartitePanel(p)
		if err != nil {
			return err
		}
		rs = append(rs, r)
	}
	if err := exp.WriteBipartite(os.Stdout, rs); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "bipartite.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return exp.WriteBipartite(f, rs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbmpart-eval:", err)
	os.Exit(1)
}

// runFigure fans the figure's panels out onto a worker pool and
// streams each result's artifacts — summary row, CDF series file,
// terminal plot — in panel order as soon as the prefix completes. The
// emitted artifacts are byte-identical at any GOMAXPROCS; only the
// wall-clock timing columns reflect pool contention (the timing
// experiment never goes through this path).
func runFigure(num int, panels []exp.Panel, out string) error {
	fmt.Printf("== Figure %d ==\n%s\n", num, exp.SummaryHeader)
	dir := filepath.Join(out, fmt.Sprintf("figure%d", num))
	return exp.RunPanels(panels, func(r *exp.Result) error {
		if err := exp.WriteSummaryRow(os.Stdout, r); err != nil {
			return err
		}
		path, err := exp.SaveCDF(dir, r)
		if err != nil {
			return err
		}
		fmt.Printf("  series -> %s\n", path)
		return exp.ASCIICDF(os.Stdout, r, 64, 12)
	})
}

func runTable1(n int64, out string) error {
	fmt.Println("== Table 1: related-work matrix as printed in the paper ==")
	fmt.Println(exp.PaperTable1())
	fmt.Println()
	fmt.Printf("== Table 1 (measured): capabilities of this implementation at n=%d ==\n", n)
	caps, err := exp.MeasureCapabilities(n, 99)
	if err != nil {
		return err
	}
	if err := exp.WriteCapabilities(os.Stdout, caps); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "table1_measured.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return exp.WriteCapabilities(f, caps)
}

func runTiming(scales []int64, out string) error {
	fmt.Println("== SBM-Part timing (single stream, k=64, RMAT) ==")
	fmt.Println("paper reference: RMAT-22 (67M edges), 64 values, 1 thread: ~1100 s on a Xeon E5-2630v3")
	pts, err := exp.RunTiming(scales, 64, 7)
	if err != nil {
		return err
	}
	if err := exp.WriteTiming(os.Stdout, pts); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "timing.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return exp.WriteTiming(f, pts)
}
