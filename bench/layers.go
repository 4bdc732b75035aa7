package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// homophilyTolerance is how far a run's same-label edge fraction may
// sit from the one golden.json records for seed 1. Across seeds 1-10
// the realised fraction moves by less than 0.01 on every workload.
const homophilyTolerance = 0.05

// fidelity is what the matcher achieved on a workload's correlated edge
// type, beside what the schema asked for.
type fidelity struct {
	edge string
	// l1 is the L1 distance between the target joint and the realised
	// one (monopartite matches only).
	l1 float64
	// homophilyObs is the share of the dataset's edges whose endpoints
	// carry the same label; homophilyAsked is the schema's `homophily`.
	homophilyObs, homophilyAsked float64
}

// runLayers calls the layers below the engine on their own, with the
// inputs the engine would hand them for p's schema: the structure
// generator under the engine's seed for that edge, the CSR build, the
// matcher on that structure with the dataset's labels, and each
// encoder on the finished dataset. It returns the fidelity of the first
// correlated edge type; the benchmark's schemas have one each.
func runLayers(t *tracer, out samples, job string, p *pipeline, dir string) (*fidelity, error) {
	start := time.Now()
	root := t.open("layers", job, -1, start)
	defer func() { t.close(root, time.Now()) }()
	// timed runs fn as a child span and returns how long it took.
	timed := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		t.add(name, job, root, t0, t1)
		return t1.Sub(t0), err
	}

	d := p.dataset
	sgens := sgen.NewRegistry()
	var fid *fidelity
	var structS, csrS, firstS, refineS, mappingS, bipartiteS float64
	var structEdges, csrEdges int64
	for i := range p.schema.Edges {
		e := &p.schema.Edges[i]
		name := e.Structure.Name
		structSeed := xrand.NewStream(p.schema.Seed).DeriveStream("structure." + e.Name).Seed()
		matchSeed := xrand.NewStream(p.schema.Seed).DeriveStream("match." + e.Name).Seed()
		nTail, nHead := d.NodeCounts[e.Tail], d.NodeCounts[e.Head]
		c := e.Correlation
		if c != nil && c.Matrix != nil {
			return nil, fmt.Errorf("edge %s: the benchmark's schemas use homophily, not a matrix", e.Name)
		}

		switch {
		case e.Tail == e.Head && (name == "lfr" || name == "rmat"):
			g, err := sgens.BuildMono(name, e.Structure.Params, structSeed)
			if err != nil {
				return nil, err
			}
			var et *table.EdgeTable
			took, err := timed("sgen."+name+".run", func() (err error) { et, err = g.Run(nTail); return })
			if err != nil {
				return nil, err
			}
			out.add("sgen."+name+"_run_s", took.Seconds())
			structS += took.Seconds()
			structEdges += et.Len()

			took, err = timed("graph.csr_build", func() error { _, err := graph.FromEdgeTable(et, nTail); return err })
			if err != nil {
				return nil, err
			}
			csrS += took.Seconds()
			csrEdges += et.Len()

			if c == nil || c.Property == "" {
				continue
			}
			labels, k, err := labelsOf(d, e.Tail, c.Property)
			if err != nil {
				return nil, err
			}
			sizes, err := stats.Frequencies(labels, k)
			if err != nil {
				return nil, err
			}
			target, err := stats.HomophilyJoint(sizes, c.Homophily)
			if err != nil {
				return nil, err
			}
			opt := match.DefaultOptions(matchSeed)
			opt.Passes = c.Passes
			var res *match.Result
			if _, err := timed("match.property", func() (err error) {
				res, err = match.MatchProperty(et, nTail, labels, target, opt)
				return
			}); err != nil {
				return nil, err
			}
			firstS += res.PassTimes[0].Seconds()
			for _, pass := range res.PassTimes[1:] {
				refineS += pass.Seconds()
			}
			took, err = timed("match.mapping", func() error {
				_, err := match.BuildMapping(res.Assign, labels, k, opt.Seed)
				return err
			})
			if err != nil {
				return nil, err
			}
			mappingS += took.Seconds()
			l1, err := stats.L1(target, res.Observed)
			if err != nil {
				return nil, err
			}
			if fid == nil {
				fid = &fidelity{e.Name, l1, sameLabelFraction(d.Edges[e.Name], labels, labels, k), c.Homophily}
			}

		case name == "zipf-attachment":
			g, err := sgens.BuildBipartite(name, e.Structure.Params, structSeed)
			if err != nil {
				return nil, err
			}
			var et *table.EdgeTable
			took, err := timed("sgen.zipf_attachment.run", func() (err error) { et, err = g.RunBipartite(nTail, nHead); return })
			if err != nil {
				return nil, err
			}
			out.add("sgen.zipf_attachment_run_s", took.Seconds())
			structS += took.Seconds()
			structEdges += et.Len()

			if c == nil || c.TailProperty == "" {
				continue
			}
			tailLabels, kt, err := labelsOf(d, e.Tail, c.TailProperty)
			if err != nil {
				return nil, err
			}
			headLabels, kh, err := labelsOf(d, e.Head, c.HeadProperty)
			if err != nil {
				return nil, err
			}
			// The engine derives its bipartite target privately; the
			// joint its own matched edges realise is the same target up
			// to the matcher's error, and public.
			target, err := match.EmpiricalBipartite(d.Edges[e.Name], tailLabels, headLabels, kt, kh)
			if err != nil {
				return nil, err
			}
			took, err = timed("match.bipartite", func() error {
				_, err := match.MatchBipartite(et, nTail, nHead, tailLabels, headLabels, target, match.DefaultOptions(matchSeed))
				return err
			})
			if err != nil {
				return nil, err
			}
			bipartiteS += took.Seconds()
			if fid == nil {
				fid = &fidelity{e.Name, 0, sameLabelFraction(d.Edges[e.Name], tailLabels, headLabels, min(kt, kh)), c.Homophily}
			}
		}
	}
	if structS > 0 {
		out.add("sgen.edges_per_s", float64(structEdges)/structS)
	}
	if csrS > 0 {
		out.add("graph.csr_build_s", csrS)
		out.add("graph.csr_edges_per_s", float64(csrEdges)/csrS)
	}
	out.add("match.first_pass_s", firstS)
	out.add("match.refine_s", refineS)
	out.add("match.mapping_s", mappingS)
	out.add("match.bipartite_s", bipartiteS)
	if fid != nil {
		out.add("match.l1", fid.l1)
		out.add("match.homophily_obs", fid.homophilyObs)
	}

	for _, f := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		sub := filepath.Join(dir, f.String())
		var files []table.FileStat
		took, err := timed("table.encode_"+f.String(), func() (err error) {
			files, err = d.Export(sub, table.ExportOptions{Format: f})
			return
		})
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, fs := range files {
			bytes += fs.Bytes
		}
		out.add("table.encode_"+f.String()+"_s", took.Seconds())
		out.add("table.encode_"+f.String()+"_mb_per_s", float64(bytes)/1e6/took.Seconds())
		if f == table.FormatColumnar {
			took, err := timed("table.read_columnar", func() error { _, err := table.OpenColumnar(sub); return err })
			if err != nil {
				return nil, err
			}
			out.add("table.read_columnar_s", took.Seconds())
		}
		os.RemoveAll(sub)
	}
	return fid, nil
}

// labelsOf reduces a string property column to dense value indices in
// order of first appearance — the reduction the engine applies before
// matching, so index i here is group i there.
func labelsOf(d *table.Dataset, typ, prop string) ([]int64, int, error) {
	for _, pt := range d.NodeProps[typ] {
		if pt.Name != typ+"."+prop {
			continue
		}
		if pt.Kind != table.KindString {
			return nil, 0, fmt.Errorf("%s.%s is not a string property", typ, prop)
		}
		index := map[string]int64{}
		labels := make([]int64, pt.Len())
		for id, v := range pt.Strings() {
			k, ok := index[v]
			if !ok {
				k = int64(len(index))
				index[v] = k
			}
			labels[id] = k
		}
		return labels, len(index), nil
	}
	return nil, 0, fmt.Errorf("dataset has no property %s.%s", typ, prop)
}

// sameLabelFraction is the share of edges whose endpoints carry the
// same label, labels being equal modulo k — which on a bipartite edge
// pairs tail value i with head value i, as the engine's homophily
// target does.
func sameLabelFraction(et *table.EdgeTable, tailLabels, headLabels []int64, k int) float64 {
	if et.Len() == 0 {
		return 0
	}
	var same int64
	for i := range et.Tail {
		if tailLabels[et.Tail[i]]%int64(k) == headLabels[et.Head[i]]%int64(k) {
			same++
		}
	}
	return float64(same) / float64(et.Len())
}

// checkFidelity compares what the matcher achieved with golden.json and
// returns what is wrong, or "". At seed 1 both numbers must repeat to
// the last digit — the engine is deterministic at any worker count —
// and at any other seed the same-label fraction must stay within
// homophilyTolerance of the recorded one. The schema's own `homophily`
// is not the reference: at the parent commit the matcher realises 0.33
// of the 0.8 the social schema asks for, 0.42 of web's 0.7 and 0.46 of
// the recommender's 0.75.
func (h *harness) checkFidelity(w workload, seed uint64, fid *fidelity) string {
	gw, ok := h.readGolden(w.name)
	switch {
	case !ok:
		return ""
	case fid == nil:
		return "no correlated edge type was matched"
	case seed == 1 && (fid.l1 != gw.L1 || fid.homophilyObs != gw.HomophilyObs):
		return fmt.Sprintf("edge %s: match L1 %.12f and same-label fraction %.12f, %s records %.12f and %.12f for this schema version",
			fid.edge, fid.l1, fid.homophilyObs, goldenFile, gw.L1, gw.HomophilyObs)
	case math.Abs(fid.homophilyObs-gw.HomophilyObs) > homophilyTolerance:
		return fmt.Sprintf("edge %s: same-label fraction %.4f is further than %.2f from the %.4f %s records (schema asks for %.2f)",
			fid.edge, fid.homophilyObs, homophilyTolerance, gw.HomophilyObs, goldenFile, fid.homophilyAsked)
	}
	return ""
}
