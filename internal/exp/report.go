package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Reporting: TSV series per panel (one row per value pair, expected and
// observed CDFs — the exact data behind the paper's plots) and a
// summary table.

// WriteCDF writes the panel's paired CDFs as TSV: pair index, pair
// label, expected CDF, observed CDF.
func WriteCDF(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "# %s  nodes=%d edges=%d L1=%.4f KS=%.4f JS=%.4f\n",
		r.Panel.Label(), r.Nodes, r.Edges, r.L1, r.KS, r.JS); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "idx\tpair\texpected_cdf\tobserved_cdf"); err != nil {
		return err
	}
	for i, p := range r.CDF.Pairs {
		if _, err := fmt.Fprintf(w, "%d\t<%d,%d>\t%.6f\t%.6f\n",
			i, p.A, p.B, r.CDF.Expected[i], r.CDF.Observed[i]); err != nil {
			return err
		}
	}
	return nil
}

// SaveCDF writes the panel's CDF TSV into dir as <label>.tsv.
func SaveCDF(dir string, r *Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, sanitize(r.Panel.Label())+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = WriteCDF(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '(', ')', ',':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// SummaryHeader is the header row of WriteSummaryRow.
const SummaryHeader = "panel\tnodes\tedges\tk\tL1\tKS\tJS\tgen_s\tldg_s\tsbm_s"

// WriteSummaryRow writes one panel's summary line.
func WriteSummaryRow(w io.Writer, r *Result) error {
	_, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.2f\t%.2f\t%.2f\n",
		r.Panel.Label(), r.Nodes, r.Edges, r.Panel.K, r.L1, r.KS, r.JS,
		r.GenTime.Seconds(), r.LDGTime.Seconds(), r.SBMTime.Seconds())
	return err
}

// ASCIICDF renders a coarse terminal plot of the two CDFs, the closest
// a CLI gets to the paper's figure panels.
func ASCIICDF(w io.Writer, r *Result, width, height int) error {
	if width < 8 || height < 4 {
		return fmt.Errorf("exp: plot too small")
	}
	n := len(r.CDF.Expected)
	if n == 0 {
		return fmt.Errorf("exp: empty CDF")
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = make([]byte, width)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	plot := func(vals []float64, mark byte) {
		for x := 0; x < width; x++ {
			i := x * (n - 1) / max(1, width-1)
			v := vals[i]
			y := height - 1 - int(v*float64(height-1)+0.5)
			if y < 0 {
				y = 0
			}
			if y >= height {
				y = height - 1
			}
			if grid[y][x] == ' ' || grid[y][x] == mark {
				grid[y][x] = mark
			} else {
				grid[y][x] = '*' // overlap
			}
		}
	}
	plot(r.CDF.Expected, 'E')
	plot(r.CDF.Observed, 'o')
	if _, err := fmt.Fprintf(w, "%s  (E=expected, o=observed, *=overlap)\n", r.Panel.Label()); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s|\n", string(row)); err != nil {
			return err
		}
	}
	return nil
}
