package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"datasynth/internal/dsl"
)

// TestRandomMatchPinned pins the edge table an uncorrelated edge ends
// with — the random match's bijections applied to its structure — for
// each cardinality, on one type and across two.
func TestRandomMatchPinned(t *testing.T) {
	for _, c := range []struct{ name, card, head, structure, want string }{
		{"1-* self", "1-*", "A", "cascade(minSize=2, maxSize=12)",
			"2d1c92df9f7b211c691fa5930357b8ffe66387093c7b579cfa5efd246dbf67b5"},
		{"1-* across", "1-*", "B", "powerlaw-out(min=1, max=8, gamma=2.0)",
			"f72c45f595869e8cde78508fa6ab3ab86b6834eb7a4d8446ef609e92064cbe86"},
		{"1-1", "1-1", "B", "one-to-one()",
			"c50cb8e7f50ae6260fa736ede00e6489e72edf63ce8c61fd912b4b271b1e696e"},
		{"1-1 self", "1-1", "A", "one-to-one()",
			"c50cb8e7f50ae6260fa736ede00e6489e72edf63ce8c61fd912b4b271b1e696e"},
		{"*-* self", "*-*", "A", "erdos-renyi(edgesPerNode=4)",
			"41ef3482e3475946ab80747f67ffe44c7e48e9ce83a247a7e4bd7e9781551f94"},
		{"*-* across", "*-*", "B", "zipf-attachment(min=1, max=6, gamma=2.0, theta=1.1)",
			"d3c8e7a36655bf06fb1850a7f1a8a93ab4272c38c93abcdbb496224486bc5965"},
	} {
		// A 1→* edge mints its heads, so B's count is the edge count.
		countB := "count = 400"
		if c.card == "1-*" && c.head == "B" {
			countB = ""
		}
		s, err := dsl.Parse(`graph g {
  seed = 5
  node A { count = 400 }
  node B { ` + countB + ` }
  edge e : A ` + c.card + ` ` + c.head + ` {
    structure = ` + c.structure + `
  }
}`)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := New(s).Generate()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		et := d.Edges["e"]
		h := sha256.New()
		for i := range et.Tail {
			h.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, et.Tail[i]), et.Head[i]))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: %d edges, hash %s, want %s", c.name, et.Len(), got, c.want)
		}
	}
}
