// Command graphstats computes the structural characteristics the
// paper's Section 2 lists (degree distribution, clustering, connected
// components, diameter, assortativity) for an edge file produced by
// datasynth — the validation side of the generate-then-verify loop.
// Both the CSV and the binary columnar (.dsc) connector formats load
// directly, selected by file extension (any other extension, JSONL
// included, is refused):
//
//	graphstats -edges dataset/edges_knows.csv
//	graphstats -edges dataset/edges_knows.dsc
//	graphstats -edges dataset/edges_knows.csv -labels dataset/nodes_Person.csv -labelcol country
//	graphstats -edges dataset/edges_knows.dsc -labels dataset/nodes_Person.dsc -labelcol country
//
// It reads same-type (monopartite) edge files: tail and head ids are
// taken from one id space. On an edge type between two node types
// (edges_creates: Person → Message) the two id spaces are merged and
// every number printed, the node count first, describes a graph the
// dataset does not contain.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

func main() {
	edgesPath := flag.String("edges", "", "edge file of a same-type edge (.csv with id,tail,head,… or .dsc)")
	labelsPath := flag.String("labels", "", "optional node file (.csv or .dsc) for label-based metrics; needs -labelcol")
	labelCol := flag.String("labelcol", "", "column of -labels holding the categorical label")
	sample := flag.Int64("sample", 5000, "node sample for clustering estimation (0 = exact)")
	flag.Parse()
	if *edgesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if (*labelsPath == "") != (*labelCol == "") {
		fmt.Fprintln(os.Stderr, "graphstats: -labels and -labelcol go together")
		flag.Usage()
		os.Exit(2)
	}
	et, maxNode, err := readEdges(*edgesPath)
	if err != nil {
		fatal(err)
	}
	n := maxNode + 1
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("nodes:                 %d\n", g.N())
	fmt.Printf("edges:                 %d\n", g.M())
	fmt.Printf("avg degree:            %.2f\n", g.AvgDegree())
	fmt.Printf("max degree:            %d\n", g.MaxDegree())
	fmt.Printf("degree Gini:           %.3f\n", g.GiniDegree())
	fmt.Printf("power-law alpha (MLE): %.2f\n", g.PowerLawAlphaMLE(2))
	fmt.Printf("avg clustering:        %.4f\n", g.AvgClustering(*sample, 1))
	_, comps := g.ConnectedComponents()
	fmt.Printf("connected components:  %d\n", comps)
	fmt.Printf("largest component:     %.1f%%\n", 100*g.LargestComponentFraction())
	fmt.Printf("approx diameter:       %d\n", g.ApproxDiameter(4, 1))
	fmt.Printf("degree assortativity:  %.3f\n", g.DegreeAssortativity())

	if *labelsPath != "" {
		labels, k, err := readLabels(*labelsPath, *labelCol, n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("label values:          %d\n", k)
		fmt.Printf("modularity:            %.3f\n", g.Modularity(labels))
		fmt.Printf("mixing fraction:       %.3f\n", g.MixingFraction(labels))
		joint, err := stats.EmpiricalJoint(et, labels, k)
		if err != nil {
			fatal(err)
		}
		var diag float64
		for a := 0; a < k; a++ {
			diag += joint.At(a, a)
		}
		fmt.Printf("same-label edge mass:  %.3f\n", diag)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphstats:", err)
	os.Exit(1)
}

// isColumnar dispatches on the file extension: true for .dsc, false for
// .csv, and an error naming the two for anything else.
func isColumnar(path string) (bool, error) {
	switch filepath.Ext(path) {
	case table.ColumnarExt:
		return true, nil
	case ".csv":
		return false, nil
	}
	return false, fmt.Errorf("%s: unsupported file type, graphstats reads .csv and %s", path, table.ColumnarExt)
}

// readEdges loads an edge file — columnar when the path ends in .dsc,
// CSV with header id,tail,head[,…] when it ends in .csv.
func readEdges(path string) (*table.EdgeTable, int64, error) {
	columnar, err := isColumnar(path)
	if err != nil {
		return nil, 0, err
	}
	if columnar {
		ct, err := table.ReadColumnarFile(path)
		if err != nil {
			return nil, 0, err
		}
		if ct.Edges == nil {
			return nil, 0, fmt.Errorf("%s holds a node table, not edges", path)
		}
		maxNode := ct.Edges.MaxNode() - 1
		if maxNode < 0 {
			return nil, 0, fmt.Errorf("no edges in %s", path)
		}
		return ct.Edges, maxNode, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	if _, err := r.Read(); err != nil { // header
		return nil, 0, fmt.Errorf("reading header: %w", err)
	}
	et := table.NewEdgeTable("edges", 1024)
	var maxNode int64 = -1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if len(rec) < 3 {
			return nil, 0, fmt.Errorf("edge row needs id,tail,head columns")
		}
		// Node ids are uint32, as in every edge table.
		t, err := strconv.ParseUint(rec[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("bad tail %q: %w", rec[1], err)
		}
		h, err := strconv.ParseUint(rec[2], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("bad head %q: %w", rec[2], err)
		}
		et.Add(int64(t), int64(h))
		maxNode = max(maxNode, int64(t), int64(h))
	}
	if maxNode < 0 {
		return nil, 0, fmt.Errorf("no edges in %s", path)
	}
	return et, maxNode, nil
}

// readLabels loads a node file (columnar or CSV) and reduces one
// column to dense label indices over n nodes (missing ids default to a
// fresh "" label).
func readLabels(path, col string, n int64) ([]int64, int, error) {
	columnar, err := isColumnar(path)
	if err != nil {
		return nil, 0, err
	}
	if columnar {
		return readLabelsColumnar(path, col, n)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("reading header: %w", err)
	}
	colIdx := -1
	for i, h := range header {
		if h == col {
			colIdx = i
		}
	}
	if colIdx == -1 {
		return nil, 0, fmt.Errorf("column %q not in %v", col, header)
	}
	labels := make([]int64, n)
	for i := range labels {
		labels[i] = -1
	}
	index := map[string]int64{}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil || id < 0 || id >= n {
			continue
		}
		v := rec[colIdx]
		k, ok := index[v]
		if !ok {
			k = int64(len(index))
			index[v] = k
		}
		labels[id] = k
	}
	labels, k := finalizeLabels(labels, len(index))
	return labels, k, nil
}

// finalizeLabels gives ids absent from the node file a catch-all label
// index of their own. The index is allocated past the real values, not
// through the value map, so it can never collide with a property that
// happens to spell the same as a sentinel string.
func finalizeLabels(labels []int64, k int) ([]int64, int) {
	missing := int64(-1)
	for i, l := range labels {
		if l == -1 {
			if missing == -1 {
				missing = int64(k)
				k++
			}
			labels[i] = missing
		}
	}
	return labels, k
}

// readLabelsColumnar reduces one property column of a columnar node
// file to dense label indices over n nodes; ids beyond the file's row
// count share a catch-all label.
func readLabelsColumnar(path, col string, n int64) ([]int64, int, error) {
	ct, err := table.ReadColumnarFile(path)
	if err != nil {
		return nil, 0, err
	}
	if ct.Edges != nil {
		return nil, 0, fmt.Errorf("%s holds an edge table, not nodes", path)
	}
	var pt *table.PropertyTable
	for _, p := range ct.Props {
		if table.ShortName(p.Name) == col {
			pt = p
			break
		}
	}
	if pt == nil {
		return nil, 0, fmt.Errorf("column %q not in %s", col, path)
	}
	labels := make([]int64, n)
	index := map[string]int64{}
	rows := pt.Len()
	for id := int64(0); id < n; id++ {
		if id >= rows {
			labels[id] = -1
			continue
		}
		v := pt.Format(id)
		k, ok := index[v]
		if !ok {
			k = int64(len(index))
			index[v] = k
		}
		labels[id] = k
	}
	labels, k := finalizeLabels(labels, len(index))
	return labels, k, nil
}
