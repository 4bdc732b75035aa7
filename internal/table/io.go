package table

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements the CSV output connector required by the paper's
// "others" requirement (Section 2): integration with downstream tooling
// via portable formats. We write one CSV file per node type and per edge
// type, the layout used by most property-graph bulk loaders
// (Neo4j-style node/relationship files). Rows are rendered by the row
// writer in rows.go and the bytes match encoding/csv output exactly.

// WriteNodeCSV writes a node-type file with header "id,prop1,prop2,…"
// joining the given PTs on the implicit id column. All PTs must have
// the same length. Property columns are emitted in the order given.
func WriteNodeCSV(w io.Writer, typeName string, props []*PropertyTable) error {
	return writeTable(w, newCellFormat(false), typeName, nil, props)
}

// WriteEdgeCSV writes an edge-type file with header
// "id,tail,head,prop1,…". Edge PTs must have one row per edge.
func WriteEdgeCSV(w io.Writer, et *EdgeTable, props []*PropertyTable) error {
	return writeTable(w, newCellFormat(false), et.Name, et, props)
}

// writeTable plans the fields of a node (et nil) or edge table in the
// row format f — the id, for JSON the label, an edge's endpoints, then
// the properties — and writes its rows.
func writeTable(w io.Writer, f *cellFormat, label string, et *EdgeTable, props []*PropertyTable) error {
	fields := []rowField{{name: "id", kind: fieldSeq}}
	if f.json {
		fields = append(fields, rowField{name: "label", kind: fieldConst, pre: appendJSONString(nil, label)})
	}
	n := int64(-1)
	if et != nil {
		n = et.Len()
		fields = append(fields, rowField{name: "tail", kind: fieldInt, ids: et.Tail}, rowField{name: "head", kind: fieldInt, ids: et.Head})
	}
	names := make([]string, len(fields))
	for i := range fields {
		names[i] = fields[i].name
	}
	if err := checkColumnCollisions(names, props); err != nil {
		return err
	}
	for _, pt := range props {
		if n < 0 {
			n = pt.Len()
		} else if pt.Len() != n {
			return fmt.Errorf("table: property %s has %d rows, expected %d", pt.Name, pt.Len(), n)
		}
		rf, err := f.field(pt)
		if err != nil {
			return err
		}
		fields = append(fields, rf)
	}
	n = max(n, 0)
	if f.json {
		// encoding/json orders map keys lexicographically on the raw key.
		sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
		for i := range fields {
			open := byte(',')
			if i == 0 {
				open = '{'
			}
			fields[i].pre = append(append(appendJSONString([]byte{open}, fields[i].name), ':'), fields[i].pre...)
		}
		return writeRows(w, f, nil, fields, n, "}\n")
	}
	var head []byte
	for i := range fields {
		if i > 0 {
			fields[i].pre = []byte{','}
		}
		head = appendCSVField(append(head, fields[i].pre...), fields[i].name)
	}
	return writeRows(w, f, append(head, '\n'), fields, n, "\n")
}

// shortName strips the "Type." prefix from a PT name for CSV headers.
func shortName(name string) string { return name[strings.LastIndexByte(name, '.')+1:] }

// checkColumnCollisions rejects property short names that would
// collide with a structural column of the emitted file or with one
// another. Every row-oriented connector (CSV header row, JSONL row
// object) runs this before writing: a colliding name used to silently
// produce an ambiguous header (CSV) or overwrite the structural field
// (JSONL).
func checkColumnCollisions(structural []string, props []*PropertyTable) error {
	owner := make(map[string]string, len(structural)+len(props))
	for _, s := range structural {
		owner[s] = "the structural column"
	}
	for _, pt := range props {
		key := shortName(pt.Name)
		if prev, dup := owner[key]; dup {
			return fmt.Errorf("table: exported column %q of property %s collides with %s", key, pt.Name, prev)
		}
		owner[key] = "property " + pt.Name
	}
	return nil
}

// Dataset is an in-memory generated property graph: the output of the
// DataSynth engine, ready to be exported.
type Dataset struct {
	// NodeProps maps node type -> ordered property tables.
	NodeProps map[string][]*PropertyTable
	// NodeCounts maps node type -> instance count (needed for types
	// with zero properties).
	NodeCounts map[string]int64
	// Edges maps edge type -> edge table.
	Edges map[string]*EdgeTable
	// EdgeProps maps edge type -> ordered property tables.
	EdgeProps map[string][]*PropertyTable
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		NodeProps:  map[string][]*PropertyTable{},
		NodeCounts: map[string]int64{},
		Edges:      map[string]*EdgeTable{},
		EdgeProps:  map[string][]*PropertyTable{},
	}
}

// WriteDir exports the dataset as one CSV per type into dir, creating
// it if necessary. Files are named nodes_<Type>.csv / edges_<Type>.csv.
// Tables are written concurrently and committed atomically; see Export.
func (d *Dataset) WriteDir(dir string) error {
	_, err := d.Export(dir, ExportOptions{Format: FormatCSV})
	return err
}

// Stats summarises the dataset for logging.
func (d *Dataset) Stats() string {
	var nodes, edges int64
	//lint:allow detrange integer sums are order-independent and feed a log line, not output bytes
	for _, n := range d.NodeCounts {
		nodes += n
	}
	//lint:allow detrange integer sums are order-independent and feed a log line, not output bytes
	for _, et := range d.Edges {
		edges += et.Len()
	}
	return fmt.Sprintf("%d node types / %d nodes, %d edge types / %d edges",
		len(d.NodeCounts), nodes, len(d.Edges), edges)
}
