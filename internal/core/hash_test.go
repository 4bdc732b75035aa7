package core

import (
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/schema"
)

const hashSchemaA = `graph g {
  seed = 7
  node Person {
    count = 100
    property age : int = uniform-int(lo=18, hi=90)
  }
}
`

// Same schema, different surface syntax: parameter order swapped,
// whitespace and comments changed.
const hashSchemaB = `# a comment
graph g {
  seed = 7
  node Person {
    count   = 100
    property age : int = uniform-int(hi=90, lo=18)
  }
}
`

func TestCanonicalHashInvariantToSurfaceSyntax(t *testing.T) {
	a, err := dsl.Parse(hashSchemaA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsl.Parse(hashSchemaB)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := CanonicalHash(a), CanonicalHash(b)
	if ha != hb {
		t.Fatalf("surface-syntax variants hash differently:\n%s\n%s", ha, hb)
	}
	if len(ha) != 64 {
		t.Fatalf("hash %q is not hex sha256", ha)
	}
	// The canonical text must round-trip: hashing the reprint of the
	// parse is the fixed point the cache key relies on.
	rt, err := dsl.Parse(CanonicalSchema(a))
	if err != nil {
		t.Fatalf("canonical text does not reparse: %v", err)
	}
	if CanonicalHash(rt) != ha {
		t.Fatal("canonical hash is not a reprint fixed point")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base, err := dsl.Parse(hashSchemaA)
	if err != nil {
		t.Fatal(err)
	}
	h := CanonicalHash(base)

	for name, text := range map[string]string{
		"seed":  strings.Replace(hashSchemaA, "seed = 7", "seed = 8", 1),
		"count": strings.Replace(hashSchemaA, "count = 100", "count = 101", 1),
		"param": strings.Replace(hashSchemaA, "hi=90", "hi=91", 1),
	} {
		s, err := dsl.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if CanonicalHash(s) == h {
			t.Errorf("changing the %s did not change the canonical hash", name)
		}
	}
}

func TestValidateSchema(t *testing.T) {
	s, err := dsl.Parse(hashSchemaA)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchema(s); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	// Break referential integrity (programmatically — dsl.Parse already
	// rejects this): an edge to an undeclared type.
	bad := *s
	bad.Edges = []schema.EdgeType{{
		Name: "knows", Tail: "Person", Head: "Ghost",
		Cardinality: schema.ManyToMany,
		Structure:   schema.GeneratorSpec{Name: "lfr"},
	}}
	if err := ValidateSchema(&bad); err == nil {
		t.Fatal("schema with undeclared endpoint type validated")
	}
}
