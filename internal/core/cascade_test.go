package core

import (
	"testing"

	"datasynth/internal/dsl"
)

// cascadeDSL models a discussion forum: Messages form reply cascades.
const cascadeDSL = `
graph forum {
  seed = 4
  node Message {
    count = 3000
    property topic : string = categorical(dict="topics")
  }
  edge replyOf : Message 1-* Message {
    structure = cascade(minSize=1, maxSize=40, gamma=2.0, preferRecent=0.4)
  }
}
`

func TestCascadeEdgeInDSL(t *testing.T) {
	s, err := dsl.Parse(cascadeDSL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	replyOf := d.Edges["replyOf"]
	if replyOf.Len() == 0 {
		t.Fatal("no reply edges")
	}
	if err := replyOf.Validate(3000, 3000); err != nil {
		t.Fatal(err)
	}
	// Forest invariant survives the random matching: every node has at
	// most one parent (out-degree <= 1 on the child->parent edge).
	outDeg := make(map[uint32]int)
	for i := int64(0); i < replyOf.Len(); i++ {
		outDeg[replyOf.Tail[i]]++
		if outDeg[replyOf.Tail[i]] > 1 {
			t.Fatalf("message %d has two parents", replyOf.Tail[i])
		}
	}
	// Acyclicity: follow parents from every node; must terminate.
	parent := make(map[uint32]uint32, replyOf.Len())
	for i := int64(0); i < replyOf.Len(); i++ {
		parent[replyOf.Tail[i]] = replyOf.Head[i]
	}
	for v := uint32(0); v < 3000; v++ {
		cur, steps := v, 0
		for {
			p, ok := parent[cur]
			if !ok {
				break
			}
			cur = p
			steps++
			if steps > 3000 {
				t.Fatalf("cycle reached from message %d", v)
			}
		}
	}
}
