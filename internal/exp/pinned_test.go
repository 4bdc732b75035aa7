package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"datasynth/internal/par/partest"
)

// pinnedPanels are the CDF series the evaluation writes, pinned by the
// SHA-256 of WriteCDF's output. They cover both generators, the three
// stream orders, the balance ablation and refinement passes, so a change
// to how a panel is matched that moves any figure byte fails here.
var pinnedPanels = []struct {
	p    Panel
	hash string
}{
	{Panel{Generator: LFR, Size: 2000, K: 4, Seed: 31}, "94fe4042052df6dd954f778e6771d095ebbb56e75877bb709395f8fe527b7d84"},
	{Panel{Generator: LFR, Size: 1500, K: 8, Seed: 32}, "8a9f5f29331e49f20e31c5abc03772f79975b46d0998a1215e794775c067e43c"},
	{Panel{Generator: RMAT, Size: 10, K: 4, Seed: 33}, "c64b4724418cda57c7aaee623d1bce3ab34a629d44540ed9f9124f08a87abbcb"},
	{Panel{Generator: RMAT, Size: 9, K: 8, Seed: 34}, "ff2dffa36f290f27575afb53108a7724a720cb1863a8fffe2e3a2ffb711155ac"},
	{Panel{Generator: LFR, Size: 1000, K: 2, Seed: 35}, "02834026e42379c6cbdcdf8b200d79d2643b319b5eb6e38758f096bf6e689d64"},
	{Panel{Generator: LFR, Size: 2000, K: 8, Seed: 11, Order: "bfs"}, "54e3fa56c02b3a6959f46ff1f145e9fabf86ea6c33bde29cdcc42b66db5627b5"},
	{Panel{Generator: LFR, Size: 2000, K: 8, Seed: 11, Order: "degree"}, "bdac7b8642084b8900a46293bd8deb3a453d372fa583f0fb29d70f59fc3adb65"},
	{Panel{Generator: LFR, Size: 2000, K: 8, Seed: 11, NoBalance: true}, "b74f2f82c7a6421e2ee2279badfa3b63a1925f5f6af06ccb59aa7a1eb727139f"},
	{Panel{Generator: LFR, Size: 3000, K: 8, Seed: 7, Passes: 2}, "26344276f8db5af37b3b69428fe68c5ba035dd5b62fbb8eb48322f69a6672d3f"},
	{Panel{Generator: RMAT, Size: 10, K: 8, Seed: 7, Passes: 2}, "6afced53d027aa097ea037764a5a3c5e2ec09f35bdd73dabe0419fc1ea7c14e5"},
}

func cdfHash(t *testing.T, r *Result) string {
	t.Helper()
	sum := sha256.Sum256([]byte(cdfBytes(t, r)))
	return hex.EncodeToString(sum[:])
}

// TestPanelPinnedCDF: every pinned panel writes the same CDF bytes
// through the serial RunPanel and through the pooled RunPanels at one
// and at four Ps.
func TestPanelPinnedCDF(t *testing.T) {
	panels := make([]Panel, len(pinnedPanels))
	for i, c := range pinnedPanels {
		panels[i] = c.p
		r, err := RunPanel(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p.Label(), err)
		}
		if got := cdfHash(t, r); got != c.hash {
			t.Errorf("RunPanel %d (%s): CDF sha256 %s, want %s", i, c.p.Label(), got, c.hash)
		}
	}
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		i := 0
		err := RunPanels(panels, func(r *Result) error {
			if got := cdfHash(t, r); got != pinnedPanels[i].hash {
				t.Errorf("GOMAXPROCS=%d: RunPanels %d (%s): CDF sha256 %s, want %s",
					procs, i, r.Panel.Label(), got, pinnedPanels[i].hash)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i != len(panels) {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, i, len(panels))
		}
	}
}

// TestMuSweepPinned pins the structure-sensitivity table verbatim.
func TestMuSweepPinned(t *testing.T) {
	pts, err := RunMuSweep(3000, 8, []float64{0.05, 0.2, 0.45}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMuSweep(&buf, pts); err != nil {
		t.Fatal(err)
	}
	const want = "mu\tL1\tKS\n" +
		"0.05\t0.2155\t0.1077\n" +
		"0.20\t0.2864\t0.1421\n" +
		"0.45\t0.1759\t0.0694\n"
	if got := buf.String(); got != want {
		t.Errorf("mu sweep:\n%s\nwant:\n%s", got, want)
	}
}
