package core

import (
	"fmt"
	"strings"
	"time"

	"datasynth/internal/depgraph"
	"datasynth/internal/match"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// genStructure runs the edge type's structure generator. The resulting
// edge table carries *anonymous* node ids until the match task rewrites
// them into property-row (instance) ids. The returned note carries the
// generator's one-line telemetry (sgen.Noter — e.g. sharded RMAT's
// round/draw counts) into the task timing report, like match tasks do
// with their SBM-Part per-pass breakdown.
func (e *Engine) genStructure(st *runState, plan *depgraph.Plan, edgeName string) (taskOut, error) {
	edge := e.Schema.EdgeType(edgeName)
	if c := edge.Correlation; c != nil && c.Fused {
		return e.genFusedStructure(st, plan, edge)
	}
	mono, bip, err := e.structureGen(edge)
	if err != nil {
		return taskOut{}, err
	}

	var et *table.EdgeTable
	var note string
	if g := mono; g != nil {
		var n int64
		if edge.Count > 0 {
			if n, err = g.NumNodesForEdges(edge.Count); err != nil {
				return taskOut{}, err
			}
		} else if n, err = e.nodeCount(st, plan, edge.Tail); err != nil {
			return taskOut{}, err
		}
		if err := checkCount("edge "+edgeName+"'s structure", n); err != nil {
			return taskOut{}, err
		}
		if et, err = g.Run(n); err != nil {
			return taskOut{}, err
		}
		if err := et.Validate(n, n); err != nil {
			return taskOut{}, fmt.Errorf("core: structure generator %s: %w", g.Name(), err)
		}
		if nt, ok := g.(sgen.Noter); ok {
			note = nt.RunNote()
		}
	} else {
		g := bip
		var nTail int64
		if edge.Count > 0 {
			if nTail, err = g.NumTailsForEdges(edge.Count); err != nil {
				return taskOut{}, err
			}
		} else if nTail, err = e.nodeCount(st, plan, edge.Tail); err != nil {
			return taskOut{}, err
		}
		// 1→* mints fresh heads; other cardinalities need the head
		// domain up front.
		nHead := int64(-1)
		if edge.Cardinality != schema.OneToMany && edge.Tail != edge.Head {
			if nHead, err = e.nodeCount(st, plan, edge.Head); err != nil {
				return taskOut{}, err
			}
		}
		if edge.Cardinality == schema.OneToOne {
			nHead = nTail
		}
		if err := checkCount("edge "+edgeName+"'s tail domain", nTail); err != nil {
			return taskOut{}, err
		}
		if nHead < 0 {
			if err := checkMinted(edge, g, nTail); err != nil {
				return taskOut{}, err
			}
		}
		if et, err = g.RunBipartite(nTail, nHead); err != nil {
			return taskOut{}, err
		}
		if nt, ok := g.(sgen.Noter); ok {
			note = nt.RunNote()
		}
	}
	et.Name = edgeName
	if note != "" {
		e.logf("structure %s: %d edges (%s)", edgeName, et.Len(), note)
	} else {
		e.logf("structure %s: %d edges", edgeName, et.Len())
	}
	return taskOut{edges: et, note: note}, nil
}

// checkMinted refuses a structure that mints a fresh head per edge (1→*)
// when the edges nTail tails are expected to draw would pass maxCount
// heads — before the table is allocated. A run that draws past the
// bound anyway is refused by the generator.
func checkMinted(edge *schema.EdgeType, g sgen.BipartiteGenerator, nTail int64) error {
	if est, ok := g.(sgen.EdgeCountEstimator); ok {
		if m := est.EstimatedEdges(nTail); m > maxCount {
			return fmt.Errorf("core: edge %s mints a %s per edge and its %d tails draw about %d edges, more than the %d nodes a node type holds",
				edge.Name, edge.Head, nTail, m, int64(maxCount))
		}
	}
	return nil
}

// genFusedStructure implements the paper's future-work fused operator
// for correlated 1→* edges: structure and the correlated head property
// are produced together by match.FusedOneToMany, realising the joint
// exactly up to integer rounding. Tail ids in the resulting table are
// final instance ids and heads are fresh, so the match task is a no-op.
func (e *Engine) genFusedStructure(st *runState, plan *depgraph.Plan, edge *schema.EdgeType) (taskOut, error) {
	c := edge.Correlation
	tailPT, ok := st.props[[2]string{edge.Tail, c.TailProperty}]
	if !ok {
		return taskOut{}, fmt.Errorf("core: fused edge %s needs property %s.%s first", edge.Name, edge.Tail, c.TailProperty)
	}
	tailLabels, tailValues := labelsFor(tailPT)
	kt := len(tailValues)
	// The head property's generator supplies the value universe and the
	// marginal P(Y); buildGenerators has checked it is categorical.
	cat := st.gens[edge.Head+"."+c.HeadProperty].gen.(*pgen.Categorical)
	headValues := cat.Vocabulary(nil)
	kh := len(headValues)

	// Edge count: explicit, or measured from a dry run of the declared
	// structure generator (its out-degree model sizes the edge type).
	m := edge.Count
	if m == 0 {
		nTail, err := e.nodeCount(st, plan, edge.Tail)
		if err != nil {
			return taskOut{}, err
		}
		_, g, err := e.structureGen(edge)
		if err != nil {
			return taskOut{}, err
		}
		if err := checkMinted(edge, g, nTail); err != nil {
			return taskOut{}, err
		}
		dry, err := g.RunBipartite(nTail, -1)
		if err != nil {
			return taskOut{}, err
		}
		m = dry.Len()
	}

	// The joint comes from the tail label frequencies and the head
	// generator's marginal probabilities.
	tailW, err := labelWeights(tailLabels, kt)
	if err != nil {
		return taskOut{}, err
	}
	headW := make([]float64, kh)
	for b := range headW {
		headW[b] = cat.Prob(b)
	}
	target, err := stats.AlignedHomophilyJoint(tailW, headW, c.Homophily)
	if err != nil {
		return taskOut{}, err
	}
	et, headLabels, err := match.FusedOneToMany(tailLabels, kt, kh, m, target, e.structureSeed(edge.Name))
	if err != nil {
		return taskOut{}, err
	}
	et.Name = edge.Name
	e.logf("fused structure %s: %d edges, joint exact up to rounding", edge.Name, et.Len())
	return taskOut{edges: et, fused: &fusedColumn{labels: headLabels, values: headValues}}, nil
}

// matchEdge performs the paper's graph-matching task: it rewrites the
// structure's anonymous node ids into instance ids, preserving the
// requested property-structure correlation (or randomly when none is
// declared). The returned note annotates the task's timing-report row
// with the SBM-Part per-pass breakdown, so -timings shows where a
// match task's critical-path time goes — including refinement passes.
func (e *Engine) matchEdge(st *runState, plan *depgraph.Plan, edgeName string) (string, error) {
	edge := e.Schema.EdgeType(edgeName)
	if c := edge.Correlation; c != nil && c.Fused {
		return "", nil // genFusedStructure drew final ids
	}
	et, ok := st.edges[edgeName]
	if !ok {
		return "", fmt.Errorf("core: match before structure for %q", edgeName)
	}
	seed := xrand.NewStream(e.Schema.Seed).DeriveStream("match." + edgeName).Seed()
	nTail, err := e.nodeCount(st, plan, edge.Tail)
	if err != nil {
		return "", err
	}
	nHead, err := e.nodeCount(st, plan, edge.Head)
	if err != nil {
		return "", err
	}

	if edge.Correlation == nil {
		return "", matchRandom(edge, et, nTail, nHead, seed)
	}
	return e.matchCorrelated(st, edge, et, nTail, nHead, seed)
}

// matchRandom applies the paper's uncorrelated rule: "In those cases
// where an edge type is not correlated with any property, the matching
// is done randomly."
func matchRandom(edge *schema.EdgeType, et *table.EdgeTable, nTail, nHead int64, seed uint64) error {
	// Domain extents actually used by the structure (tails and heads
	// have independent id spaces on bipartite edges).
	var tailSpan, headSpan int64
	for i := range et.Tail {
		tailSpan = max(tailSpan, int64(et.Tail[i])+1)
		headSpan = max(headSpan, int64(et.Head[i])+1)
	}

	switch {
	case edge.Tail == edge.Head && edge.Cardinality != schema.OneToOne:
		// Tails and heads share one id domain (a *→* graph, or a 1→*
		// cascade such as Message replyOf Message), so both endpoints
		// map through the same bijection to preserve the structure.
		f, err := match.RandomMatch(max(tailSpan, headSpan), nTail, seed)
		if err != nil {
			return err
		}
		et.Remap(f)
	case edge.Cardinality == schema.OneToMany:
		// Heads are freshly minted dense ids — they *are* the instance
		// ids. Tails map through a random bijection so instance id
		// carries no out-degree bias.
		fTail, err := match.RandomMatch(tailSpan, nTail, seed)
		if err != nil {
			return err
		}
		et.RemapTails(fTail)
	default:
		fTail, err := match.RandomMatch(tailSpan, nTail, seed)
		if err != nil {
			return err
		}
		fHead, err := match.RandomMatch(headSpan, nHead, seed^0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		et.RemapTails(fTail)
		et.RemapHeads(fHead)
	}
	return nil
}

// labelsFor reduces a string property table to dense value indices,
// returning (labels, values) where values[i] is the string of index i.
// Value order follows first appearance, making the reduction
// deterministic. A coded column is re-ranked code by code — only its
// distinct values are ever hashed, and two codes that spell the same
// string share a label; an arena column hashes every row. Every
// correlated property is a string (schema.Validate).
func labelsFor(pt *table.PropertyTable) ([]int64, []string) {
	index := map[string]int64{}
	var values []string
	label := func(v string) int64 {
		k, ok := index[v]
		if !ok {
			k = int64(len(values))
			index[v] = k
			values = append(values, v)
		}
		return k
	}
	labels := make([]int64, pt.Len())
	if codes, dict := pt.Coded(); dict != nil {
		byCode := make([]int64, len(dict))
		for code := range byCode {
			byCode[code] = -1
		}
		for id, code := range codes {
			if byCode[code] < 0 {
				byCode[code] = label(dict[code])
			}
			labels[id] = byCode[code]
		}
		return labels, values
	}
	for id := range labels {
		labels[id] = label(pt.String(int64(id)))
	}
	return labels, values
}

// matchCorrelated runs SBM-Part for a correlated edge: over one domain
// for a same-type correlation, over tails then heads for a tail/head
// one, refined by the correlation's passes either way. The returned
// note carries the match's step and per-pass wall times into the task
// timing report.
func (e *Engine) matchCorrelated(st *runState, edge *schema.EdgeType, et *table.EdgeTable, nTail, nHead int64, seed uint64) (string, error) {
	c := edge.Correlation
	opt := match.DefaultOptions(seed)
	opt.Passes = c.Passes
	var (
		target, observed *stats.Joint
		times            match.StepTimes
		passes           []time.Duration
	)
	if c.Property != "" {
		pt, ok := st.props[[2]string{edge.Tail, c.Property}]
		if !ok {
			return "", fmt.Errorf("core: correlated property %s.%s not materialised", edge.Tail, c.Property)
		}
		labels, values := labelsFor(pt)
		sizes, err := stats.Frequencies(labels, len(values))
		if err != nil {
			return "", err
		}
		if target, err = stats.HomophilyJoint(sizes, c.Homophily); err != nil {
			return "", err
		}
		if structN := et.MaxNode(); structN > nTail {
			return "", fmt.Errorf("core: structure of %s spans %d nodes but %s has %d instances", edge.Name, structN, edge.Tail, nTail)
		}
		// The structure may cover fewer nodes than instances exist; SBM-Part
		// capacities come from all rows, so the mapping stays injective.
		res, err := match.MatchProperty(et, nTail, labels, target, opt)
		if err != nil {
			return "", err
		}
		et.Remap(res.Mapping)
		observed, times, passes = res.Observed, res.StepTimes, res.PassTimes
	} else {
		tailPT, ok := st.props[[2]string{edge.Tail, c.TailProperty}]
		if !ok {
			return "", fmt.Errorf("core: property %s.%s not materialised", edge.Tail, c.TailProperty)
		}
		headPT, ok := st.props[[2]string{edge.Head, c.HeadProperty}]
		if !ok {
			return "", fmt.Errorf("core: property %s.%s not materialised", edge.Head, c.HeadProperty)
		}
		tailLabels, tailValues := labelsFor(tailPT)
		headLabels, headValues := labelsFor(headPT)
		tailW, err := labelWeights(tailLabels, len(tailValues))
		if err != nil {
			return "", err
		}
		headW, err := labelWeights(headLabels, len(headValues))
		if err != nil {
			return "", err
		}
		if target, err = stats.AlignedHomophilyJoint(tailW, headW, c.Homophily); err != nil {
			return "", err
		}
		res, err := match.MatchBipartite(et, nTail, nHead, tailLabels, headLabels, target, opt)
		if err != nil {
			return "", err
		}
		et.RemapTails(res.TailMapping)
		et.RemapHeads(res.HeadMapping)
		observed, times, passes = res.Observed, res.StepTimes, res.PassTimes
	}
	l1, _ := stats.L1(target, observed)
	note := sbmNote(times, passes)
	e.logf("match %s: k=%d L1=%.4f %s", edge.Name, target.K, l1, note)
	return note, nil
}

// sbmNote renders a match task's step timings for logs and the timing
// report: CSR build, stream order, SBM-Part with the per-pass breakdown
// when refinement passes ran (pass 0 is the initial stream), mapping and
// observed joint.
func sbmNote(st match.StepTimes, passTimes []time.Duration) string {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	var b strings.Builder
	fmt.Fprintf(&b, "csr %v order %v sbm %v", us(st.CSRTime), us(st.OrderTime), us(st.PartitionTime))
	if len(passTimes) > 1 {
		b.WriteString(" (passes")
		for i, d := range passTimes {
			if i == 0 {
				fmt.Fprintf(&b, " %v", us(d))
			} else {
				fmt.Fprintf(&b, "+%v", us(d))
			}
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, " map %v joint %v", us(st.MappingTime), us(st.JointTime))
	return b.String()
}

// labelWeights returns the frequency of each of k labels as a weight
// vector for stats.AlignedHomophilyJoint.
func labelWeights(labels []int64, k int) ([]float64, error) {
	freq, err := stats.Frequencies(labels, k)
	if err != nil {
		return nil, err
	}
	w := make([]float64, k)
	for i, f := range freq {
		w[i] = float64(f)
	}
	return w, nil
}

// genEdgeProperty produces one edge property table; dependencies may
// reference sibling edge properties or endpoint node properties via
// tail./head. prefixes (resolved through the matched edge table).
func (e *Engine) genEdgeProperty(st *runState, edgeName, propName string) (taskOut, error) {
	et, ok := st.edges[edgeName]
	if !ok {
		return taskOut{}, fmt.Errorf("core: edge property %s.%s before structure", edgeName, propName)
	}
	pt, err := e.generate(st, st.gens[edgeName+"."+propName], et.Len(), et)
	if err != nil {
		return taskOut{}, err
	}
	return taskOut{prop: pt, note: deferredNote(pt, table.EdgeFileName(edgeName, e.ExportFormat))}, nil
}

// assemble packages the run state's tables as a dataset, preserving
// schema property order; GenerateCtx adds the node counts.
func (e *Engine) assemble(st *runState) *table.Dataset {
	d := table.NewDataset()
	for i := range e.Schema.Nodes {
		n := &e.Schema.Nodes[i]
		for j := range n.Properties {
			d.NodeProps[n.Name] = append(d.NodeProps[n.Name], st.props[[2]string{n.Name, n.Properties[j].Name}])
		}
	}
	for i := range e.Schema.Edges {
		ed := &e.Schema.Edges[i]
		d.Edges[ed.Name] = st.edges[ed.Name]
		for j := range ed.Properties {
			d.EdgeProps[ed.Name] = append(d.EdgeProps[ed.Name], st.props[[2]string{ed.Name, ed.Properties[j].Name}])
		}
	}
	return d
}
