// Package schema defines DataSynth's property-graph schema model: the
// node types, edge types, properties, cardinalities, generator bindings
// and scale factor that the DSL compiles into and the engine executes.
//
// It corresponds to the paper's "Schema" requirement (Section 2):
// "such schemas are usually defined in terms of the node and edge
// types, their associated properties and the cardinality of the edge
// types".
package schema

import (
	"fmt"
	"strings"

	"datasynth/internal/table"
)

// Cardinality of an edge type.
type Cardinality int

// Edge cardinalities from the paper: knows is *→*, creates is 1→*.
const (
	OneToOne Cardinality = iota
	OneToMany
	ManyToMany
)

// String returns the DSL spelling.
func (c Cardinality) String() string {
	switch c {
	case OneToOne:
		return "1-1"
	case OneToMany:
		return "1-*"
	case ManyToMany:
		return "*-*"
	default:
		return fmt.Sprintf("Cardinality(%d)", int(c))
	}
}

// ParseCardinality parses a DSL cardinality.
func ParseCardinality(s string) (Cardinality, error) {
	switch s {
	case "1-1", "1->1":
		return OneToOne, nil
	case "1-*", "1->*":
		return OneToMany, nil
	case "*-*", "*->*":
		return ManyToMany, nil
	default:
		return 0, fmt.Errorf("schema: unknown cardinality %q", s)
	}
}

// GeneratorSpec binds a named generator with parameters; the engine's
// registries resolve it into a concrete property or structure
// generator. Mirrors the paper's PG/SG initialize(...) call.
type GeneratorSpec struct {
	Name   string
	Params map[string]string
}

// Property describes one property of a node or edge type.
type Property struct {
	Name string
	Kind table.ValueKind
	// Generator names the property generator and its parameters.
	Generator GeneratorSpec
	// DependsOn lists properties of the same type this property's
	// generator is conditioned on, in the order the PG's run method
	// expects them (paper: run(id, r(id), val_0, …, val_k)).
	DependsOn []string
}

// Correlation declares a property-structure correlation for an edge
// type: the joint distribution P(X,Y) that the property values at the
// edge's endpoints must follow.
type Correlation struct {
	// Property is the endpoint node property being correlated (for
	// monopartite edges); for bipartite matching TailProperty and
	// HeadProperty name one property per endpoint type.
	Property     string
	TailProperty string
	HeadProperty string
	// Homophily in [0,1] is the same-value (for a tail/head pair, the
	// aligned-value) edge fraction of the target joint.
	Homophily float64
	// Matrix is not supported: Validate refuses a correlation that sets
	// it. The DSL cannot write an explicit P(X,Y) and the canonical hash
	// does not cover one, so the target is always a homophily model.
	Matrix [][]float64
	// Passes adds re-streaming refinement passes to the matcher
	// (0 = the paper's single-pass algorithm). Each extra pass replays
	// the stream hubs-first with full-neighbourhood information,
	// typically shrinking the joint-distribution error severalfold at
	// linear extra cost. Every correlation but a fused one, whose
	// structure is drawn already matched.
	Passes int
	// Fused requests the specialised fused operator (paper Section 5
	// future work): structure and the correlated head property are
	// generated together, realising the joint exactly up to integer
	// rounding. Only valid on 1→* edges with a tail/head correlation;
	// the edge's structure generator is used solely to size the edge
	// count, so fine-grained out-degree control is traded for strict
	// constraint satisfaction.
	Fused bool
}

// NodeType describes a node type and its properties.
type NodeType struct {
	Name string
	// Count is the explicit instance count; 0 means "inferred" (from
	// scale factor or a 1→* edge, per the paper's dependency analysis).
	Count      int64
	Properties []Property
}

// Property returns the named property or nil.
func (n *NodeType) Property(name string) *Property {
	for i := range n.Properties {
		if n.Properties[i].Name == name {
			return &n.Properties[i]
		}
	}
	return nil
}

// EdgeType describes an edge type, its endpoints and its structure.
type EdgeType struct {
	Name        string
	Tail, Head  string // node type names
	Cardinality Cardinality
	// Structure names the structure generator (paper SG) and params.
	Structure GeneratorSpec
	// Count is the explicit edge count; 0 means sized from the tail
	// node count via the SG (or vice versa via getNumNodes).
	Count int64
	// Properties of the edge itself (e.g. knows.creationDate).
	Properties []Property
	// Correlation, if non-nil, requests property-structure matching.
	Correlation *Correlation
}

// Property returns the named edge property or nil.
func (e *EdgeType) Property(name string) *Property {
	for i := range e.Properties {
		if e.Properties[i].Name == name {
			return &e.Properties[i]
		}
	}
	return nil
}

// DepSource says where a property's dependency is read from.
type DepSource int

// Dependency sources. A node property reads only siblings; an edge
// property also reads its endpoints' node properties.
const (
	// DepSibling: a property of the same type, read row for row.
	DepSibling DepSource = iota
	// DepTail: a node property of the edge's tail, read through the
	// edge's tail ids.
	DepTail
	// DepHead: a node property of the edge's head, read through the
	// edge's head ids.
	DepHead
)

// SplitDep decodes one `given` entry of an edge property: "tail.x" is
// the tail node type's property x, "head.x" the head's, anything else
// a sibling edge property. The prefix always wins, so a sibling whose
// name starts with "tail." or "head." cannot be depended on. owner is
// the type that holds the property. Validation, the dependency
// analysis and the engine all decode through it.
func (e *EdgeType) SplitDep(dep string) (src DepSource, owner, prop string) {
	if p, ok := strings.CutPrefix(dep, "tail."); ok && p != "" {
		return DepTail, e.Tail, p
	}
	if p, ok := strings.CutPrefix(dep, "head."); ok && p != "" {
		return DepHead, e.Head, p
	}
	return DepSibling, e.Name, dep
}

// Schema is a complete generation specification.
type Schema struct {
	Name  string
	Seed  uint64
	Nodes []NodeType
	Edges []EdgeType
}

// NodeType returns the named node type or nil.
func (s *Schema) NodeType(name string) *NodeType {
	for i := range s.Nodes {
		if s.Nodes[i].Name == name {
			return &s.Nodes[i]
		}
	}
	return nil
}

// EdgeType returns the named edge type or nil.
func (s *Schema) EdgeType(name string) *EdgeType {
	for i := range s.Edges {
		if s.Edges[i].Name == name {
			return &s.Edges[i]
		}
	}
	return nil
}

// Validate checks referential integrity: unique type names, edge
// endpoints referring to declared node types, dependency references
// resolving, correlations naming real properties, and at least one
// sizing anchor so the dependency analysis can infer every count.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: missing graph name")
	}
	seen := map[string]bool{}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name == "" {
			return fmt.Errorf("schema: node type %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("schema: duplicate type name %q", n.Name)
		}
		seen[n.Name] = true
		if n.Count < 0 {
			return fmt.Errorf("schema: node type %q has negative count", n.Name)
		}
		if err := validateProps(n.Name, n.Properties, []string{"id", "label"}, func(dep string) bool {
			return n.Property(dep) != nil
		}); err != nil {
			return err
		}
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		if e.Name == "" {
			return fmt.Errorf("schema: edge type %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("schema: duplicate type name %q", e.Name)
		}
		seen[e.Name] = true
		tail := s.NodeType(e.Tail)
		head := s.NodeType(e.Head)
		if tail == nil {
			return fmt.Errorf("schema: edge %q tail type %q undeclared", e.Name, e.Tail)
		}
		if head == nil {
			return fmt.Errorf("schema: edge %q head type %q undeclared", e.Name, e.Head)
		}
		if e.Structure.Name == "" {
			return fmt.Errorf("schema: edge %q has no structure generator", e.Name)
		}
		if e.Cardinality == ManyToMany && e.Tail != e.Head && e.Correlation != nil && e.Correlation.Property != "" {
			return fmt.Errorf("schema: edge %q correlates a single property across different endpoint types; use tail/head properties", e.Name)
		}
		if c := e.Correlation; c != nil {
			if c.Property != "" {
				if e.Tail != e.Head {
					return fmt.Errorf("schema: edge %q monopartite correlation on heterogeneous endpoints", e.Name)
				}
				if tail.Property(c.Property) == nil {
					return fmt.Errorf("schema: edge %q correlates unknown property %q", e.Name, c.Property)
				}
				if err := correlatedKind(e, tail, c.Property); err != nil {
					return err
				}
			} else {
				if c.TailProperty == "" || c.HeadProperty == "" {
					return fmt.Errorf("schema: edge %q correlation names no properties", e.Name)
				}
				if tail.Property(c.TailProperty) == nil {
					return fmt.Errorf("schema: edge %q tail property %q unknown", e.Name, c.TailProperty)
				}
				if head.Property(c.HeadProperty) == nil {
					return fmt.Errorf("schema: edge %q head property %q unknown", e.Name, c.HeadProperty)
				}
				if err := correlatedKind(e, tail, c.TailProperty); err != nil {
					return err
				}
				if err := correlatedKind(e, head, c.HeadProperty); err != nil {
					return err
				}
			}
			if c.Matrix != nil {
				return fmt.Errorf("schema: edge %q sets an explicit correlation matrix; only homophily is supported", e.Name)
			}
			if c.Homophily < 0 || c.Homophily > 1 {
				return fmt.Errorf("schema: edge %q homophily %v outside [0,1]", e.Name, c.Homophily)
			}
			if c.Passes < 0 {
				return fmt.Errorf("schema: edge %q has negative matching passes", e.Name)
			}
			if c.Passes > 0 && c.Fused {
				// A fused edge's structure is drawn already matched: no
				// matcher runs that could refine it.
				return fmt.Errorf("schema: edge %q asks for %d refinement passes, which a fused correlation does not support", e.Name, c.Passes)
			}
			if c.Fused {
				if e.Cardinality != OneToMany {
					return fmt.Errorf("schema: edge %q requests fused matching but is not 1-*", e.Name)
				}
				if c.TailProperty == "" || c.HeadProperty == "" {
					return fmt.Errorf("schema: edge %q fused matching needs tail/head properties", e.Name)
				}
			}
		}
		if err := validateProps(e.Name, e.Properties, []string{"id", "label", "tail", "head"}, func(dep string) bool {
			switch src, _, name := e.SplitDep(dep); src {
			case DepTail:
				return tail.Property(name) != nil
			case DepHead:
				return head.Property(name) != nil
			default:
				return e.Property(name) != nil
			}
		}); err != nil {
			return err
		}
	}
	// Sizing: at least one anchor (an explicit node or edge count).
	anchored := false
	for i := range s.Nodes {
		if s.Nodes[i].Count > 0 {
			anchored = true
		}
	}
	for i := range s.Edges {
		if s.Edges[i].Count > 0 {
			anchored = true
		}
	}
	if !anchored {
		return fmt.Errorf("schema: no scale anchor (every count is inferred)")
	}
	return nil
}

// correlatedKind refuses a correlated property that is not a string:
// the matchers and the fused operator work on a property's distinct
// values, which only a string column enumerates.
func correlatedKind(e *EdgeType, n *NodeType, prop string) error {
	if k := n.Property(prop).Kind; k != table.KindString {
		return fmt.Errorf("schema: edge %q correlates %s.%s of kind %v; a correlated property must be a string property", e.Name, n.Name, prop, k)
	}
	return nil
}

// validateProps checks one type's properties; each must export a column
// (table.ShortName) that no structural column or other property takes.
// The structural columns are those of every export format, JSONL's
// per-row "label" included, so a schema valid for one format is valid
// for all.
func validateProps(owner string, props []Property, structural []string, depOK func(string) bool) error {
	names := map[string]bool{}
	columns := map[string]string{} // exported column -> what takes it
	for _, c := range structural {
		columns[c] = "the structural column"
	}
	for i := range props {
		p := &props[i]
		if p.Name == "" {
			return fmt.Errorf("schema: %s property %d has no name", owner, i)
		}
		if names[p.Name] {
			return fmt.Errorf("schema: %s has duplicate property %q", owner, p.Name)
		}
		names[p.Name] = true
		col := table.ShortName(p.Name)
		if prev, taken := columns[col]; taken {
			return fmt.Errorf("schema: %s.%s exports column %q, already taken by %s", owner, p.Name, col, prev)
		}
		columns[col] = "property " + owner + "." + p.Name
		if p.Generator.Name == "" {
			return fmt.Errorf("schema: %s.%s has no generator", owner, p.Name)
		}
		for _, dep := range p.DependsOn {
			if dep == p.Name {
				return fmt.Errorf("schema: %s.%s depends on itself", owner, p.Name)
			}
			if !depOK(dep) {
				return fmt.Errorf("schema: %s.%s depends on unknown property %q", owner, p.Name, dep)
			}
		}
	}
	return nil
}
