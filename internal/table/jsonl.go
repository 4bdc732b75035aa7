package table

import "io"

// JSON-lines connectors: one JSON object per node/edge, the streaming
// format document stores and data pipelines ingest directly. Together
// with the CSV writers this covers the paper's "integrability"
// requirement (connectors for production-level technologies).
//
// Rows are rendered by the row writer in rows.go — byte-identical to a
// per-row map[string]any through encoding/json (keys sorted
// lexicographically, HTML-escaped strings, stdlib float formatting). A
// property whose short name collides with a structural key ("id",
// "label", "tail", "head") or with another property is a hard error.

// WriteNodeJSONL writes one object per node: {"id":…, "label":…,
// "<prop>":…} with keys in sorted order. A property short name equal
// to "id" or "label" (or duplicated across properties) is an error.
func WriteNodeJSONL(w io.Writer, typeName string, props []*PropertyTable) error {
	return writeTable(w, newCellFormat(true), typeName, nil, props)
}

// WriteEdgeJSONL writes one object per edge: {"head":…, "id":…,
// "label":…, "tail":…, "<prop>":…} with keys in sorted order. A
// property short name equal to a structural key ("id", "label",
// "tail", "head") or duplicated across properties is an error.
func WriteEdgeJSONL(w io.Writer, et *EdgeTable, props []*PropertyTable) error {
	return writeTable(w, newCellFormat(true), et.Name, et, props)
}
