package core

import (
	"math"
	"strings"
	"testing"

	"datasynth/internal/dsl"
)

// fusedDSL exercises the paper's future-work fused operator through the
// DSL: Person country correlates with Message topic exactly.
const fusedDSL = `
graph fusedsocial {
  seed = 11
  node Person {
    count = 1000
    property region : string = categorical(values="north|south", weights="1|1")
  }
  node Message {
    property locale : string = categorical(values="n-locale|s-locale", weights="1|1")
  }
  edge posts : Person 1-* Message {
    structure = powerlaw-out(min=2, max=6, gamma=2.0)
    correlate tail.region with head.locale homophily 0.9 fused
  }
}
`

func TestFusedEdgeEndToEnd(t *testing.T) {
	s, err := dsl.Parse(fusedDSL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	posts := d.Edges["posts"]
	if posts.Len() == 0 {
		t.Fatal("no edges")
	}
	if d.NodeCounts["Message"] != posts.Len() {
		t.Fatalf("Message count %d != posts %d", d.NodeCounts["Message"], posts.Len())
	}
	region := d.NodeProps["Person"][0]
	locale := d.NodeProps["Message"][0]
	// The joint must be realised EXACTLY up to rounding: 90% aligned.
	aligned := 0.0
	for e := int64(0); e < posts.Len(); e++ {
		r := region.String(int64(posts.Tail[e]))
		l := locale.String(int64(posts.Head[e]))
		if (r == "north") == (l == "n-locale") {
			aligned++
		}
	}
	frac := aligned / float64(posts.Len())
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("aligned fraction = %v, want 0.90 exactly (fused operator)", frac)
	}
	// Head marginal must follow the declared 50/50 weights approximately
	// (the homophily model preserves marginals by construction).
	nCount := 0
	for id := int64(0); id < d.NodeCounts["Message"]; id++ {
		if locale.String(id) == "n-locale" {
			nCount++
		}
	}
	if f := float64(nCount) / float64(d.NodeCounts["Message"]); f < 0.4 || f > 0.6 {
		t.Errorf("head marginal P(n-locale) = %v, want ~0.5", f)
	}
}

func TestFusedDeterministic(t *testing.T) {
	gen := func() []uint32 {
		s, err := dsl.Parse(fusedDSL)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(s).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return d.Edges["posts"].Tail
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatal("fused runs differ in size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fused run not deterministic")
		}
	}
}

func TestFusedRequiresOneToMany(t *testing.T) {
	src := strings.Replace(fusedDSL, "1-* Message", "*-* Message", 1)
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchema(s); err == nil || !strings.Contains(err.Error(), "not 1-*") {
		t.Errorf("err = %v, want fused-needs-1-* rejection", err)
	}
}

func TestFusedRequiresCategoricalHead(t *testing.T) {
	src := strings.Replace(fusedDSL,
		`property locale : string = categorical(values="n-locale|s-locale", weights="1|1")`,
		`property locale : string = text(min=1, max=2)`, 1)
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(s).Generate(); err == nil || !strings.Contains(err.Error(), "categorical") {
		t.Errorf("err = %v, want categorical requirement", err)
	}
}

func TestFusedExplicitEdgeCount(t *testing.T) {
	src := strings.Replace(fusedDSL, "structure = powerlaw-out(min=2, max=6, gamma=2.0)",
		"count = 7000\n    structure = powerlaw-out(min=2, max=6, gamma=2.0)", 1)
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if d.Edges["posts"].Len() != 7000 {
		t.Errorf("edges = %d, want exactly 7000 (fused honours explicit count)", d.Edges["posts"].Len())
	}
}
