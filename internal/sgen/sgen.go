// Package sgen implements DataSynth's Structure Generators (paper
// Section 4.1). A Structure Generator (SG) produces the edge table of
// one edge type; properties are attached later by the matching step, so
// SGs deal only in anonymous node ids [0, n).
//
// The SG interface mirrors the paper exactly:
//
//	initialize(...)            -> configured generator (Go: constructor)
//	run(n)                     -> EdgeTable            (Go: Run)
//	getNumNodes(numEdges)      -> n                    (Go: NumNodesForEdges)
//
// The package ships the generators the paper's evaluation and related
// work discuss: RMAT (Graph500), LFR, BTER, plus Erdős–Rényi,
// Barabási–Albert and Watts–Strogatz as commonly needed baselines, the
// reply-tree cascades of the paper's future work, and bipartite
// generators for 1→* and *→* edge types between different node types.
//
// # Determinism and sharding
//
// Every generator is a pure function of its seed and parameters. The
// two hot generators, LFR and RMAT, split their work into units whose
// content is a pure function of (seed, unit index) — LFR derives one
// RNG stream per community, RMAT one per (round, shard) via
// NewStream(seed).DeriveStream("rmat.shard").DeriveN(r<<20|s) — and
// units fill disjoint output ranges that a sequential pass then
// resolves in a fixed order (RMAT's radix sort-and-compact dedup runs
// there). LFR wires its communities on up to GOMAXPROCS goroutines
// (par.Procs); who computes a unit never decides what it contains, so
// the edge table is byte-identical at any parallelism; golden-hash
// tests pin the exact bytes. RMAT fills its shards in a plain loop: the
// fill is a quarter of a run whose dedup is sequential, and a second
// fill worker measured no repeatable win. Changing a
// generator's drawing scheme changes the bytes for a given seed and
// must bump core.SchemaVersion.
//
// # Writing a structure generator
//
// A generator is a struct of parameters and a seed implementing
// Generator (one node type) or BipartiteGenerator (two), registered
// under its DSL name with Registry.RegisterMono/RegisterBipartite.
// Four rules make it safe to put behind the engine and the daemon:
//
//   - Validate is the whole parameter check. It refuses everything Run
//     would refuse whatever n is — empty ranges (min > max), exponents
//     that are not positive, probabilities and mixing parameters
//     outside [0,1], NaN anywhere (write the comparison so that NaN
//     fails it: !(x > 0), not x <= 0) — and it costs O(parameters): no
//     CDF, alias or guide table, nothing sized by n (bter and darwini
//     keep their parameters as a degree histogram of dmax entries,
//     which their factories fill). The registry
//     calls it on every generator it builds, and core.ValidateSchema
//     builds every edge type's generator, so `datasynth -validate`,
//     daemon admission (on cache hits too) and scenario registration
//     all stop a bad spec before any task runs. Run calls Validate
//     itself, for callers that fill the struct by hand, and adds only
//     the checks that need n (a domain too small, a density out of
//     reach).
//   - Unknown parameters are errors. A built-in factory reads its
//     parameters through sgParams, which refuses a spec naming one the
//     factory never read: zipf-attachment(tetha=2) must not generate
//     with theta's default and be cached under a hash of its own.
//   - The edge table is a pure function of (seed, parameters, n) at
//     any GOMAXPROCS. Draw from xrand streams derived from the seed
//     by label or index, never from shared state; if the work is
//     sharded, a unit's content depends only on (seed, unit index) and
//     units are resolved in a fixed order. Emission order is part of
//     the bytes: pin it with a golden hash (TestRMATGoldenHash,
//     TestZipfAttachmentGolden) before optimising.
//   - Scratch is budgeted per generated edge. The table itself is 8
//     bytes an edge: two uint32 ids, each below an n the engine bounds
//     by table.MaxNodes (Add panics on an id past the uint32 range
//     rather than truncate it; a generator that mints its own ids, as
//     powerlaw-out mints heads, returns an error before that). A
//     generator should stay within a small multiple of the table
//     beside it and say how much: an RMAT round holds one 8-byte
//     candidate per drawn key (TestRMATDedupBuffers), LFR's wiring
//     reuses one edgeDedup per shard, zipf-attachment keeps 8 bytes per
//     popularity rank and finds a tail's repeated head by scanning the
//     at most MaxOut heads it already has, not in a set per tail.
//
// A generator with something worth a line in the timing report —
// rounds, redraws, duplicates — implements Noter.
package sgen

import (
	"fmt"

	"datasynth/internal/table"
)

// Generator produces graph structure for one edge type. Implementations
// must be deterministic for a fixed seed.
type Generator interface {
	// Name identifies the generator in the DSL and in diagnostics.
	Name() string
	// Validate checks the generator's parameters — everything Run would
	// refuse whatever n is — in O(parameters): no CDF or table is built.
	// Schema validation calls it at admission; Run calls it too.
	Validate() error
	// Run generates the edges of a graph over n nodes. Endpoint ids are
	// in [0, n); edge ids are the dense row numbers of the returned
	// table.
	Run(n int64) (*table.EdgeTable, error)
	// NumNodesForEdges returns the node count n such that Run(n) yields
	// approximately numEdges edges — the paper's getNumNodes, used when
	// the user scales the graph by edge count.
	NumNodesForEdges(numEdges int64) (int64, error)
}

// Noter is implemented by generators that report a one-line telemetry
// note about their most recent Run; the engine attaches it to the
// structure task's row in the timing report (as match tasks do with
// their SBM-Part per-pass breakdown).
type Noter interface {
	RunNote() string
}

// EdgeCountEstimator is implemented by generators whose edge count is
// a cheap closed form of the node count. The generation service uses
// it to derive admission size bounds for schemas whose edge counts are
// inferred (Count = 0) — rejecting oversized jobs at submit instead of
// after generation. Estimates are approximate (a few percent off is
// fine); the post-generation check stays authoritative.
type EdgeCountEstimator interface {
	// EstimatedEdges returns the approximate number of edges Run(n)
	// produces, or 0 when no estimate is possible.
	EstimatedEdges(n int64) int64
}

// BipartiteGenerator produces structure between two distinct node
// domains (e.g. the running example's `creates` between Person and
// Message). Tail ids are in [0, nTail), head ids in [0, nHead).
type BipartiteGenerator interface {
	Name() string
	// Validate is Generator.Validate for bipartite generators.
	Validate() error
	// RunBipartite generates edges from nTail tail nodes. If nHead < 0
	// the generator chooses the head count itself (e.g. exactly one
	// Message per `creates` edge) and the implied head count is the
	// table's max head id + 1.
	RunBipartite(nTail, nHead int64) (*table.EdgeTable, error)
	// NumTailsForEdges sizes the tail domain from a desired edge count.
	NumTailsForEdges(numEdges int64) (int64, error)
}

// searchNodesForEdges numerically inverts an edge-count model m(n) that
// is monotone in n. Used by generators whose edge count is not a closed
// form of n.
func searchNodesForEdges(numEdges int64, edgesAt func(n int64) float64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("sgen: numEdges must be positive, got %d", numEdges)
	}
	lo, hi := int64(1), int64(2)
	for edgesAt(hi) < float64(numEdges) {
		hi *= 2
		if hi > 1<<40 {
			return 0, fmt.Errorf("sgen: cannot reach %d edges", numEdges)
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if edgesAt(mid) < float64(numEdges) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}
