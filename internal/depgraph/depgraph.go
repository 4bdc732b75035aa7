// Package depgraph implements DataSynth's dependency analysis (paper
// Section 4.2): "The data generation process begins analyzing the
// schema described by the user to reveal dependencies among the data to
// be generated. … from the dependencies analysis we get a dependency
// graph, which we traverse to preserve the dependencies between the
// tasks."
//
// Tasks are of four kinds — generate property, generate structure,
// match graph, and generate edge property — and the analysis also
// resolves how every node type's instance count is obtained, covering
// the paper's flagship example: the number of Messages is the size of
// the `creates` edge table, which in turn is sized from the number of
// Persons (or, inversely, from a requested edge count through the SG's
// getNumNodes).
package depgraph

import (
	"fmt"
	"sort"

	"datasynth/internal/schema"
)

// TaskKind enumerates the task types of the paper's Figure 2 pipeline.
type TaskKind int

// Task kinds, in pipeline order.
const (
	// TaskProperty generates one node property table.
	TaskProperty TaskKind = iota
	// TaskStructure generates one edge type's structure.
	TaskStructure
	// TaskMatch matches node property rows to structure nodes.
	TaskMatch
	// TaskEdgeProperty generates one edge property table.
	TaskEdgeProperty
)

// String returns a diagnostic name.
func (k TaskKind) String() string {
	switch k {
	case TaskProperty:
		return "property"
	case TaskStructure:
		return "structure"
	case TaskMatch:
		return "match"
	case TaskEdgeProperty:
		return "edge-property"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Task is one unit of generation work.
type Task struct {
	Kind TaskKind
	Type string // node type (TaskProperty) or edge type name
	Prop string // property name for property tasks
}

// ID returns the unique task identifier.
func (t Task) ID() string {
	switch t.Kind {
	case TaskProperty:
		return "P:" + t.Type + "." + t.Prop
	case TaskStructure:
		return "S:" + t.Type
	case TaskMatch:
		return "M:" + t.Type
	default:
		return "EP:" + t.Type + "." + t.Prop
	}
}

// SourceKind describes how a node type's count is obtained.
type SourceKind int

// Count sources.
const (
	// SourceExplicit: the schema declares the count.
	SourceExplicit SourceKind = iota
	// SourceEdgeHead: the type is the head of a 1→* edge; its count is
	// that edge table's size (the Message example).
	SourceEdgeHead
	// SourceEdgeCount: the type is the tail of an edge with an explicit
	// edge count; its count comes from the SG's getNumNodes.
	SourceEdgeCount
)

// CountSource records one node type's sizing rule.
type CountSource struct {
	Kind SourceKind
	Edge string // edge type for the edge-derived kinds
}

// Plan is the task DAG plus sizing rules. Tasks is in a
// dependency-respecting (topological) order, so an executor can walk
// it; Deps exposes the per-task dependency edges, from which the engine
// gives each task a level (one past its deepest dependency) and runs
// the tasks of one level together.
type Plan struct {
	Tasks []Task
	// Deps[i] lists the indices (into Tasks) of the tasks that must
	// complete before Tasks[i] may run. Entries are deduplicated and,
	// because Tasks is topologically ordered, always smaller than i.
	Deps [][]int
	// Counts maps node type name -> how to obtain its instance count.
	Counts map[string]CountSource
}

// Sinks reports, task by task, whether no other task depends on it.
// Nothing in the plan reads what a sink produces — only whoever consumes
// the generated dataset does — which is what lets the engine leave a
// sink property column unfilled until the export asks for its rows.
func (p *Plan) Sinks() []bool {
	sinks := make([]bool, len(p.Tasks))
	for i := range sinks {
		sinks[i] = true
	}
	for _, deps := range p.Deps {
		for _, d := range deps {
			sinks[d] = false
		}
	}
	return sinks
}

// Analyze validates the schema (the one schema.Validate call outside
// tests), builds its dependency graph, resolves count sources, and
// returns tasks in a dependency-respecting order. It fails on dependency
// cycles and on node types whose count cannot be inferred.
func Analyze(s *schema.Schema) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	counts, err := resolveCounts(s)
	if err != nil {
		return nil, err
	}

	// Build the task set.
	var tasks []Task
	index := map[string]int{}
	add := func(t Task) {
		if _, dup := index[t.ID()]; dup {
			return
		}
		index[t.ID()] = len(tasks)
		tasks = append(tasks, t)
	}
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for j := range n.Properties {
			add(Task{Kind: TaskProperty, Type: n.Name, Prop: n.Properties[j].Name})
		}
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		add(Task{Kind: TaskStructure, Type: e.Name})
		add(Task{Kind: TaskMatch, Type: e.Name})
		for j := range e.Properties {
			add(Task{Kind: TaskEdgeProperty, Type: e.Name, Prop: e.Properties[j].Name})
		}
	}

	// Edges of the dependency graph: dep -> dependent, deduplicated so
	// Deps and the indegrees stay consistent for kahn.
	adj := make([][]int, len(tasks))
	indeg := make([]int, len(tasks))
	haveEdge := map[[2]int]bool{}
	addDep := func(from, to Task) error {
		fi, ok := index[from.ID()]
		if !ok {
			return fmt.Errorf("depgraph: internal: missing task %s", from.ID())
		}
		ti, ok := index[to.ID()]
		if !ok {
			return fmt.Errorf("depgraph: internal: missing task %s", to.ID())
		}
		if haveEdge[[2]int{fi, ti}] {
			return nil
		}
		haveEdge[[2]int{fi, ti}] = true
		adj[fi] = append(adj[fi], ti)
		indeg[ti]++
		return nil
	}

	// countDep returns the task (if any) that must complete before the
	// given node type's count is known.
	countDep := func(nodeType string) *Task {
		src := counts[nodeType]
		if src.Kind == SourceEdgeHead {
			return &Task{Kind: TaskStructure, Type: src.Edge}
		}
		return nil
	}

	for i := range s.Nodes {
		n := &s.Nodes[i]
		for j := range n.Properties {
			p := &n.Properties[j]
			this := Task{Kind: TaskProperty, Type: n.Name, Prop: p.Name}
			// Conditioned properties come after their parents.
			for _, dep := range p.DependsOn {
				if err := addDep(Task{Kind: TaskProperty, Type: n.Name, Prop: dep}, this); err != nil {
					return nil, err
				}
			}
			// The property table needs the instance count.
			if cd := countDep(n.Name); cd != nil {
				if err := addDep(*cd, this); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		st := Task{Kind: TaskStructure, Type: e.Name}
		mt := Task{Kind: TaskMatch, Type: e.Name}
		// A fused edge generates structure and the correlated head
		// property together, so the tail property must exist first — and
		// the head property task materialises the fused column, so it
		// must come after the structure task that mints it.
		if e.Correlation != nil && e.Correlation.Fused {
			if err := addDep(Task{Kind: TaskProperty, Type: e.Tail, Prop: e.Correlation.TailProperty}, st); err != nil {
				return nil, err
			}
			if err := addDep(st, Task{Kind: TaskProperty, Type: e.Head, Prop: e.Correlation.HeadProperty}); err != nil {
				return nil, err
			}
		}
		// Structure needs the tail count unless the edge count is
		// explicit (then getNumNodes sizes the tail instead).
		if e.Count == 0 {
			if cd := countDep(e.Tail); cd != nil {
				if err := addDep(*cd, st); err != nil {
					return nil, err
				}
			}
			// A *→* bipartite generator also needs the head domain.
			if e.Cardinality == schema.ManyToMany && e.Tail != e.Head {
				if cd := countDep(e.Head); cd != nil {
					if err := addDep(*cd, st); err != nil {
						return nil, err
					}
				}
			}
		}
		// Match follows structure and the correlated property tables. It
		// also resolves both endpoint counts, so any structure task that
		// sizes an endpoint domain must have completed; the edge must be
		// explicit, since the task order alone does not put that
		// structure in an earlier level.
		if err := addDep(st, mt); err != nil {
			return nil, err
		}
		if cd := countDep(e.Tail); cd != nil {
			if err := addDep(*cd, mt); err != nil {
				return nil, err
			}
		}
		if cd := countDep(e.Head); cd != nil {
			if err := addDep(*cd, mt); err != nil {
				return nil, err
			}
		}
		if c := e.Correlation; c != nil {
			if c.Property != "" {
				if err := addDep(Task{Kind: TaskProperty, Type: e.Tail, Prop: c.Property}, mt); err != nil {
					return nil, err
				}
			} else {
				if err := addDep(Task{Kind: TaskProperty, Type: e.Tail, Prop: c.TailProperty}, mt); err != nil {
					return nil, err
				}
				if err := addDep(Task{Kind: TaskProperty, Type: e.Head, Prop: c.HeadProperty}, mt); err != nil {
					return nil, err
				}
			}
		}
		// Edge properties follow the match (endpoint ids are final) and
		// their dependencies.
		for j := range e.Properties {
			p := &e.Properties[j]
			this := Task{Kind: TaskEdgeProperty, Type: e.Name, Prop: p.Name}
			if err := addDep(mt, this); err != nil {
				return nil, err
			}
			for _, dep := range p.DependsOn {
				src, owner, prop := e.SplitDep(dep)
				dt := Task{Kind: TaskProperty, Type: owner, Prop: prop}
				if src == schema.DepSibling {
					dt.Kind = TaskEdgeProperty
				}
				if err := addDep(dt, this); err != nil {
					return nil, err
				}
			}
		}
	}

	perm, err := kahn(tasks, adj, indeg)
	if err != nil {
		return nil, err
	}
	ordered := make([]Task, len(perm))
	pos := make([]int, len(perm)) // original index -> output index
	for out, orig := range perm {
		ordered[out] = tasks[orig]
		pos[orig] = out
	}
	deps := make([][]int, len(perm))
	for orig, dependents := range adj {
		for _, t := range dependents {
			deps[pos[t]] = append(deps[pos[t]], pos[orig])
		}
	}
	for i := range deps {
		sort.Ints(deps[i])
	}
	return &Plan{Tasks: ordered, Deps: deps, Counts: counts}, nil
}

// resolveCounts determines every node type's count source, preferring
// explicit counts, then 1→* head inference, then tail inference through
// an explicit edge count.
func resolveCounts(s *schema.Schema) (map[string]CountSource, error) {
	counts := make(map[string]CountSource, len(s.Nodes))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Count > 0 {
			counts[n.Name] = CountSource{Kind: SourceExplicit}
			continue
		}
		resolved := false
		// Head of a 1→* edge: count = |ET| (the Message rule).
		for j := range s.Edges {
			e := &s.Edges[j]
			if e.Cardinality == schema.OneToMany && e.Head == n.Name && e.Tail != n.Name {
				counts[n.Name] = CountSource{Kind: SourceEdgeHead, Edge: e.Name}
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		// Tail of an edge with an explicit count: getNumNodes.
		for j := range s.Edges {
			e := &s.Edges[j]
			if e.Count > 0 && e.Tail == n.Name {
				counts[n.Name] = CountSource{Kind: SourceEdgeCount, Edge: e.Name}
				resolved = true
				break
			}
		}
		if !resolved {
			return nil, fmt.Errorf("depgraph: cannot infer instance count of node type %q", n.Name)
		}
	}
	// Inference chains must be acyclic: a SourceEdgeHead edge's tail
	// must not itself (transitively) depend on that edge's head.
	for name := range counts {
		seen := map[string]bool{}
		cur := name
		for {
			if seen[cur] {
				return nil, fmt.Errorf("depgraph: circular count inference involving %q", name)
			}
			seen[cur] = true
			src := counts[cur]
			if src.Kind == SourceExplicit {
				break
			}
			e := s.EdgeType(src.Edge)
			if src.Kind == SourceEdgeHead {
				cur = e.Tail
			} else {
				break // SourceEdgeCount terminates (count from spec)
			}
		}
	}
	return counts, nil
}

// kahn topologically sorts the task graph, breaking ties by pipeline
// stage then task id for deterministic plans. It returns the ordered
// original indices so the caller can remap the dependency edges.
func kahn(tasks []Task, adj [][]int, indeg []int) ([]int, error) {
	ready := make([]int, 0, len(tasks))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	sortReady := func() {
		sort.Slice(ready, func(a, b int) bool {
			ta, tb := tasks[ready[a]], tasks[ready[b]]
			if ta.Kind != tb.Kind {
				return ta.Kind < tb.Kind
			}
			return ta.ID() < tb.ID()
		})
	}
	sortReady()
	out := make([]int, 0, len(tasks))
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		out = append(out, i)
		changed := false
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
				changed = true
			}
		}
		if changed {
			sortReady()
		}
	}
	if len(out) != len(tasks) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, tasks[i].ID())
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("depgraph: dependency cycle among tasks %v", stuck)
	}
	return out, nil
}
