package sgen

import (
	"slices"
	"testing"
	"testing/quick"

	"datasynth/internal/table"
)

// TestCascadePinned pins the exact replyOf edge table of cascade(...)
// as the registry builds it: the defaults, both ends of preferRecent
// (0 draws every parent uniformly, 1 never does) and fixed-size trees
// where n cuts the last tree short. A change here means the
// generator's draws changed for existing seeds.
func TestCascadePinned(t *testing.T) {
	cases := []struct {
		params map[string]string
		seed   uint64
		n      int64
		edges  int64
		want   string
	}{
		{map[string]string{}, 7, 5000, 3328, "113a80bd6d808b19a580a6bc85eee96265258b354ad22e8bc4c63cffdf4c69e3"},
		{map[string]string{"preferRecent": "0"}, 8, 3000, 2060, "5486546bccb4bcbd6ff5f97174475f3823e03ec95dfee8b2c9bb858da6b48d8e"},
		{map[string]string{"preferRecent": "1"}, 9, 3000, 2241, "ad8075a87a71bb785d3bdac97f968929214790b52445dfbaadedb940a565d508"},
		{map[string]string{"minSize": "100", "maxSize": "100", "gamma": "1.5"}, 10, 250, 247, "81e947772f5beaa973a7ee719260bf8606f061912c086a19cf43ae4eb047cbb2"},
	}
	r := NewRegistry()
	for _, c := range cases {
		g, err := r.BuildMono("cascade", c.params, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		et, err := g.Run(c.n)
		if err != nil {
			t.Fatalf("%v n=%d: %v", c.params, c.n, err)
		}
		if got := edgeTableSHA256(et); et.Len() != c.edges || got != c.want {
			t.Errorf("%v n=%d: %d edges hash %s, want %d edges hash %s",
				c.params, c.n, et.Len(), got, c.edges, c.want)
		}
	}
}

// cascadeTrees checks that et is a forest over n nodes in cascade's
// layout — one edge per reply, in reply order, each to an earlier node
// of the reply's own tree, a tree being the ids from one parentless
// node to the next — and returns each node's depth and each tree's
// size in root order.
func cascadeTrees(t *testing.T, et *table.EdgeTable, n int64) (depth, sizes []int64) {
	t.Helper()
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = -1
	}
	for i := range et.Tail {
		child := int64(et.Tail[i])
		if child >= n || i > 0 && child <= int64(et.Tail[i-1]) {
			t.Fatalf("edge %d: reply %d out of order (n %d)", i, child, n)
		}
		parent[child] = int64(et.Head[i])
	}
	depth = make([]int64, n)
	var root int64
	for v, p := range parent {
		if p == -1 {
			root = int64(v)
			sizes = append(sizes, 1)
			continue
		}
		if p < root || p >= int64(v) {
			t.Fatalf("%d replies to %d, outside its tree [%d, %d)", v, p, root, v)
		}
		depth[v] = depth[p] + 1
		sizes[len(sizes)-1]++
	}
	return depth, sizes
}

func TestCascadeDeterministic(t *testing.T) {
	a, err := NewCascade(3).Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCascade(3).Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if edgeTableSHA256(a) != edgeTableSHA256(b) {
		t.Fatal("two runs of one seed differ")
	}
}

func TestCascadeForestInvariants(t *testing.T) {
	et, err := NewCascade(7).Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	_, sizes := cascadeTrees(t, et, 5000)
	if len(sizes) < 2 {
		t.Fatalf("%d trees", len(sizes))
	}
	var sum int64
	for _, s := range sizes {
		if s < 1 || s > 100 {
			t.Fatalf("tree size %d outside [1,100]", s)
		}
		sum += s
	}
	if sum != 5000 || et.Len() != 5000-int64(len(sizes)) {
		t.Fatalf("tree sizes sum to %d, %d edges for %d trees", sum, et.Len(), len(sizes))
	}
}

// TestCascadeEdgeTableShape checks the replyOf table on its own terms:
// one edge per non-root and every edge child -> parent with the child
// the larger id, so the table is acyclic.
func TestCascadeEdgeTableShape(t *testing.T) {
	et, err := NewCascade(9).Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	_, sizes := cascadeTrees(t, et, 2000)
	if want := 2000 - int64(len(sizes)); et.Len() != want {
		t.Fatalf("edges = %d, want %d", et.Len(), want)
	}
	for i := int64(0); i < et.Len(); i++ {
		if et.Tail[i] <= et.Head[i] {
			t.Fatalf("edge %d not child->parent ordered", i)
		}
	}
}

func TestCascadeValidation(t *testing.T) {
	if _, err := NewCascade(1).Run(0); err == nil {
		t.Error("n=0 should fail")
	}
	g := NewCascade(1)
	g.TreeSizeMin = 0
	if _, err := g.Run(10); err == nil {
		t.Error("TreeSizeMin=0 should fail")
	}
	g = NewCascade(1)
	g.PreferRecent = 2
	if _, err := g.Run(10); err == nil {
		t.Error("PreferRecent>1 should fail")
	}
}

func TestCascadePreferRecentShapesDepth(t *testing.T) {
	// PreferRecent = 1 yields pure paths (depth = size-1 per tree);
	// PreferRecent = 0 yields bushier, shallower random recursive trees.
	maxDepth := func(preferRecent float64) int64 {
		g := NewCascade(5)
		g.PreferRecent = preferRecent
		g.TreeSizeMin, g.TreeSizeMax = 50, 50
		et, err := g.Run(5000)
		if err != nil {
			t.Fatal(err)
		}
		depth, _ := cascadeTrees(t, et, 5000)
		return slices.Max(depth)
	}
	deep, shallow := maxDepth(1), maxDepth(0)
	if deep != 49 {
		t.Errorf("pure-path max depth = %d, want 49", deep)
	}
	if shallow >= deep {
		t.Errorf("random trees (depth %d) should be shallower than paths (depth %d)", shallow, deep)
	}
}

func TestCascadeForestProperty(t *testing.T) {
	// For arbitrary seeds and sizes the edge table is a forest over n
	// nodes, and depths stay below n.
	fprop := func(seed uint64, nRaw uint16) bool {
		n := int64(nRaw%2000) + 1
		et, err := NewCascade(seed).Run(n)
		if err != nil {
			return false
		}
		depth, sizes := cascadeTrees(t, et, n)
		return et.Len() == n-int64(len(sizes)) && slices.Max(depth) < n
	}
	if err := quick.Check(fprop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeTruncatedLastTree(t *testing.T) {
	// n smaller than one full tree still works.
	g := NewCascade(2)
	g.TreeSizeMin, g.TreeSizeMax = 100, 100
	et, err := g.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if _, sizes := cascadeTrees(t, et, 30); len(sizes) != 1 || et.Len() != 29 {
		t.Fatalf("%d trees, %d edges", len(sizes), et.Len())
	}
}
