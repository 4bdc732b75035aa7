package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRunPanelLFRSmall(t *testing.T) {
	r, err := RunPanel(Panel{Generator: LFR, Size: 3000, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 3000 {
		t.Errorf("nodes = %d", r.Nodes)
	}
	if r.Edges <= 0 {
		t.Error("no edges")
	}
	// Paper's headline finding: on LFR the observed CDF tracks the
	// expected closely.
	if r.KS > 0.25 {
		t.Errorf("LFR KS = %v, want < 0.25", r.KS)
	}
	if r.L1 > 0.7 {
		t.Errorf("LFR L1 = %v, want < 0.7", r.L1)
	}
	// CDFs end at ~1.
	last := len(r.CDF.Expected) - 1
	if math.Abs(r.CDF.Expected[last]-1) > 1e-6 || math.Abs(r.CDF.Observed[last]-1) > 1e-6 {
		t.Error("CDFs do not end at 1")
	}
	// Number of pairs = k(k+1)/2.
	if len(r.CDF.Pairs) != 8*9/2 {
		t.Errorf("pairs = %d", len(r.CDF.Pairs))
	}
}

func TestRunPanelRMATSmall(t *testing.T) {
	r, err := RunPanel(Panel{Generator: RMAT, Size: 10, K: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 1024 {
		t.Errorf("nodes = %d", r.Nodes)
	}
	// The paper finds RMAT harder than LFR but the head of the
	// distribution (diagonal pairs) is still reproduced; sanity-bound
	// the distances rather than demand LFR-grade fidelity.
	if r.KS > 0.6 {
		t.Errorf("RMAT KS = %v, want < 0.6", r.KS)
	}
}

func TestLFRBeatsRMATShapeFinding(t *testing.T) {
	// Figure 3's qualitative result: LFR panels fit better than RMAT
	// panels at comparable scale. The gap only stabilises once groups
	// span multiple LFR communities, so this runs at ~30k nodes.
	if testing.Short() {
		t.Skip("moderate-scale comparison skipped in -short mode")
	}
	lfr, err := RunPanel(Panel{Generator: LFR, Size: 30000, K: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := RunPanel(Panel{Generator: RMAT, Size: 15, K: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lfr.L1 >= rmat.L1 {
		t.Errorf("expected LFR fit (L1=%v) better than RMAT (L1=%v)", lfr.L1, rmat.L1)
	}
}

func TestPanelLabels(t *testing.T) {
	if l := (Panel{Generator: LFR, Size: 10000, K: 16}).Label(); l != "LFR(10k,16)" {
		t.Errorf("label = %s", l)
	}
	if l := (Panel{Generator: LFR, Size: 1000000, K: 4}).Label(); l != "LFR(1M,4)" {
		t.Errorf("label = %s", l)
	}
	if l := (Panel{Generator: RMAT, Size: 22, K: 64}).Label(); l != "RMAT(22,64)" {
		t.Errorf("label = %s", l)
	}
	if l := (Panel{Generator: LFR, Size: 1234, K: 2}).Label(); l != "LFR(1234,2)" {
		t.Errorf("label = %s", l)
	}
}

func TestPanelValidation(t *testing.T) {
	if _, err := RunPanel(Panel{Generator: LFR, Size: 1000, K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := RunPanel(Panel{Generator: "nope", Size: 100, K: 2}); err == nil {
		t.Error("unknown generator should fail")
	}
	if _, err := RunPanel(Panel{Generator: LFR, Size: 1000, K: 4, Order: "bogus"}); err == nil {
		t.Error("unknown order should fail")
	}
}

func TestFigurePanelSets(t *testing.T) {
	f3 := Figure3Panels(false)
	if len(f3) != 6 {
		t.Fatalf("figure 3 panels = %d", len(f3))
	}
	for _, p := range f3 {
		if p.K != 16 {
			t.Errorf("figure 3 panel %s has k=%d", p.Label(), p.K)
		}
	}
	f3full := Figure3Panels(true)
	if f3full[2].Size != 1000000 || f3full[5].Size != 22 {
		t.Error("full figure 3 sizes wrong")
	}
	f4 := Figure4Panels(false)
	if len(f4) != 6 {
		t.Fatalf("figure 4 panels = %d", len(f4))
	}
	ks := map[int]bool{}
	for _, p := range f4[:3] {
		ks[p.K] = true
	}
	if !ks[4] || !ks[16] || !ks[64] {
		t.Errorf("figure 4 LFR ks wrong: %v", ks)
	}
}

func TestWriteCDFAndSummary(t *testing.T) {
	r, err := RunPanel(Panel{Generator: LFR, Size: 2000, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCDF(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "expected_cdf") || !strings.Contains(out, "LFR(2k,4)") {
		t.Errorf("CDF TSV malformed:\n%s", out[:min(200, len(out))])
	}
	lines := strings.Count(out, "\n")
	if lines != 2+4*5/2 { // header + comment + 10 pairs
		t.Errorf("CDF TSV has %d lines", lines)
	}
	buf.Reset()
	if err := WriteSummaryRow(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LFR(2k,4)") {
		t.Error("summary row missing label")
	}
}

func TestSaveCDF(t *testing.T) {
	r, err := RunPanel(Panel{Generator: LFR, Size: 1000, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path, err := SaveCDF(t.TempDir(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "LFR_1k_4_.tsv") {
		t.Errorf("path = %s", path)
	}
}

func TestASCIICDF(t *testing.T) {
	r, err := RunPanel(Panel{Generator: LFR, Size: 1000, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ASCIICDF(&buf, r, 40, 10); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 11 {
		t.Errorf("plot has wrong height:\n%s", buf.String())
	}
	if err := ASCIICDF(&buf, r, 2, 2); err == nil {
		t.Error("tiny plot should fail")
	}
}

func TestAblationOrders(t *testing.T) {
	base := Panel{Generator: LFR, Size: 2000, K: 8, Seed: 11}
	for _, order := range []string{"random", "bfs", "degree"} {
		p := base
		p.Order = order
		r, err := RunPanel(p)
		if err != nil {
			t.Fatalf("order %s: %v", order, err)
		}
		if r.L1 < 0 || r.L1 > 2 {
			t.Errorf("order %s: L1 = %v out of range", order, r.L1)
		}
	}
}

func TestAblationNoBalance(t *testing.T) {
	p := Panel{Generator: LFR, Size: 2000, K: 8, Seed: 11, NoBalance: true}
	r, err := RunPanel(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1 < 0 || r.L1 > 2 {
		t.Errorf("no-balance L1 = %v", r.L1)
	}
}

func TestMeasureCapabilities(t *testing.T) {
	caps, err := MeasureCapabilities(2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) < 8 {
		t.Fatalf("capabilities = %d", len(caps))
	}
	failures := 0
	for _, c := range caps {
		if !c.Holds {
			failures++
			t.Logf("capability not held: %s %s (%s=%v)", c.System, c.Claim, c.Metric, c.Value)
		}
	}
	if failures > 1 {
		t.Errorf("%d capability checks failed", failures)
	}
	var buf bytes.Buffer
	if err := WriteCapabilities(&buf, caps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RMAT") {
		t.Error("capability table missing RMAT")
	}
}

func TestPaperTable1Static(t *testing.T) {
	tbl := PaperTable1()
	for _, want := range []string{"LDBC-SNB", "Myriad", "RMat", "LFR", "BTER", "Darwini", "DataSynth"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("paper table missing %s", want)
		}
	}
}

func TestRunTiming(t *testing.T) {
	pts, err := RunTiming([]int64{8, 9}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Edges >= pts[1].Edges {
		t.Errorf("timing points wrong: %+v", pts)
	}
	var buf bytes.Buffer
	if err := WriteTiming(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "edges_per_second") {
		t.Error("timing table malformed")
	}
}

func TestDeterministicPanels(t *testing.T) {
	a, err := RunPanel(Panel{Generator: LFR, Size: 1500, K: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPanel(Panel{Generator: LFR, Size: 1500, K: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.L1 != b.L1 || a.KS != b.KS {
		t.Errorf("panel not deterministic: %v/%v vs %v/%v", a.L1, a.KS, b.L1, b.KS)
	}
}

func TestMuSweepShape(t *testing.T) {
	// The structure-sensitivity finding (see sweep.go): high mixing
	// makes the LDG-derived target nearly independent and therefore
	// *easier* to match, so L1 at µ=0.45 sits below L1 at µ=0.05.
	pts, err := RunMuSweep(3000, 8, []float64{0.05, 0.45}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].L1 >= pts[0].L1 {
		t.Errorf("mu=0.45 L1 %v not below mu=0.05 L1 %v (uninformative targets are easy)", pts[1].L1, pts[0].L1)
	}
	var buf bytes.Buffer
	if err := WriteMuSweep(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mu\tL1") {
		t.Error("sweep TSV malformed")
	}
}

func TestPanelWithPasses(t *testing.T) {
	single, err := RunPanel(Panel{Generator: LFR, Size: 3000, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RunPanel(Panel{Generator: LFR, Size: 3000, K: 8, Seed: 7, Passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if refined.L1 >= single.L1 {
		t.Errorf("passes=2 L1 %v not below single-pass %v", refined.L1, single.L1)
	}
}
