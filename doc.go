// Package datasynth is a from-scratch Go reproduction of "Towards a
// property graph generator for benchmarking" (Prat-Pérez et al., 2017,
// arXiv:1704.00630): a framework for generating property graphs with
// configurable schemas, property value distributions, pluggable graph
// structure generators, and — the paper's core contribution —
// property-structure correlations preserved by the SBM-Part streaming
// matching algorithm.
//
// # Execution model
//
// The engine (internal/core) executes a schema as a task DAG. The
// dependency analysis (internal/depgraph) turns the schema into tasks
// of four kinds — generate node property, generate structure, match
// properties to structure, generate edge property — and exposes the
// per-task dependency edges (Plan.Deps), not just a topological order.
// The engine runs the plan in waves: a task's level is one past its
// deepest dependency, the levels run in order, and the tasks of one
// level run together under par.ForEachCtx, so independent schema
// elements generate concurrently — the in-process analogue of the
// paper's shared-nothing cluster. A task reads what earlier levels
// produced and returns its own output, which the engine stores once
// the level has finished, so no task writes shared state. Within a property task, chunks of rows additionally fan out,
// since every value is a pure function of (id, r(id), deps). There is
// no parallelism setting: every fan-out sizes itself from GOMAXPROCS
// (par.Procs) — the parallelism the process was given, not the
// machine's CPU count — and determinism is independent of it: every
// task keys its RNG streams off (schema seed, task id), so a fixed seed
// yields a byte-identical dataset on one P and on every core.
//
// The property path is column kernels end to end. A generator fills a
// chunk of 8192 consecutive ids per call into typed slices
// (pgen.Generator.Fill over a table.Chunk: []int64, []float64, uint32
// codes into a shared value list for finite vocabularies, or a byte
// arena plus offsets for open-ended strings) — no per-cell interface
// call, boxed value or kind check, and no []string anywhere; the
// matcher's labels come from the codes. The CSV and JSON-lines writers
// then render rows out of those columns with every row-independent
// decision taken once per column: each distinct coded value is quoted
// or escaped once, each day of a date column's range is rendered once
// into a lookup table (civil-from-days arithmetic, no time.Time), an
// arena chunk is scanned once and copied as raw spans when nothing in
// it needs quoting, integers are written digit pairs in place and the
// id column is a decimal counter. Generator parameters are checked
// when the generator is built, which core.ValidateSchema does for
// every property and every edge type's structure generator before any
// row exists. Both families read their parameters through one reader,
// schema.Params, which refuses a parameter the generator does not
// have; a structure generator's Validate also refuses out-of-range
// values in O(parameters).
//
// Every discrete draw — categorical and zipf columns, power-law
// degrees, zipf-attachment's popularity ranks — is an inversion of a
// cumulative table (xrand.Discrete). A guide table built with the CDF
// bounds the binary search to the one or two entries that can hold the
// answer; its bucket count is a power of two, which makes the bucket
// arithmetic exact and the result provably the full search's.
// zipf-attachment maps a rank to a head id through a Feistel
// permutation once per rank, not once per edge, and RMAT's dedup
// resolves a round of candidate keys in two buffers: filtered in place,
// radix-sorted on the bits where the keys differ, compacted in place.
//
// The hot inner loops are allocation-free at steady state: SBM-Part
// reuses per-partitioner scoring scratch, the LFR configuration model
// deduplicates edges by sort-and-compact over packed keys (plus a
// stamp table for the small intra-community universes) instead of a
// per-edge hash map, and each CSR build allocates its two arrays once,
// sized by a counting pass (internal/graph).
//
// # Intra-task parallelism and the determinism contract
//
// Beyond the task-level waves, one large task shards internally,
// under one invariant: the dataset is a pure function of the schema
// seed — byte-identical at any GOMAXPROCS, verified end to end by
// hashing exported files in all three formats (internal/core
// TestExportedDatasetGoldenDeterminism). A parallel path stays only
// where one worker → two measures as a repeatable win (CHANGES.md,
// PR 24, has the table).
//
//   - SBM-Part's stream kernel (internal/match) does not: the first
//     pass, the re-streaming refinement passes (the schema's `passes`
//     knob), the bipartite matcher — the same partitioner over a block
//     target matrix — and the LDG baseline share one serial loop
//     (gather a node's neighbour groups, commit it, next node): a
//     streaming partitioner is sequential by definition, each placement
//     reads what the previous one wrote. A match without refinement
//     (no `passes`, one-domain or bipartite) builds a streamed CSR
//     that holds each edge once, at its later-streamed end — all the
//     first pass reads — with the same bytes. Each step's wall time
//     surfaces in the -timings report as the match-task note ("csr 45ms
//     order 5ms sbm 340ms (passes …) map 6ms joint 7ms"). Node-indexed
//     match state (order, groups, mapping) is 4 bytes a node, and the
//     observed joint is read from the counts the partitioner carries.
//   - Sharded LFR wiring (internal/sgen): once community sizes and
//     memberships are fixed, each community's internal configuration
//     model is an independent shard. Shard c draws from its own RNG
//     stream keyed off (seed, "lfr.intra", c) via xrand's DeriveN,
//     wires into its own window of the edge table under par.ForEach,
//     and one in-place pass closes the gaps in community order — so
//     any number of goroutines, finishing in any order, produce the
//     same edge table, stored once. (RMAT keeps its per-shard
//     RNG streams — they are the bytes — and fills them in a plain
//     loop.)
//
// Every index-range fan-out goes through one primitive, par.ForEachCtx:
// indices claimed in order on up to GOMAXPROCS goroutines (one at
// GOMAXPROCS=1, claiming them in the serial loop's order), no index
// above a failure started, the lowest-index error or recovered panic
// returned once every started call has finished. The plan's levels
// above run through it too; only the daemon's job queue dispatches
// otherwise.
//
// Every Generate also records per-task wall times and derives the
// plan's critical path (Engine.Report, datasynth -timings): the
// dependency chain that bounds wall time on infinitely many cores,
// i.e. where further intra-task sharding could pay off. After
// Engine.Export the report covers the whole generate→match→export
// pipeline: per-file export stats, end-to-end wall, and a final export
// hop on the critical path.
//
// # Evaluation fan-out and the export pipeline
//
// The two outermost layers parallelise under the same determinism
// contract — per-seed, parallelism-invariant, format-stable:
//
//   - Parallel panels (internal/exp): figure panels and sweep points
//     are independent (each owns its seed), so exp.RunPanels runs them
//     under par.ForEachCtx and streams results back in submission
//     order, byte-identical to the serial loop. Each one
//     matches through match.MatchProperty, the operator every
//     datasynth job runs. The timing experiment runs one single-thread
//     panel at a time.
//   - Concurrent atomic export (internal/table): Dataset.Export writes
//     one file per table, up to GOMAXPROCS at a time, in any of three
//     formats — CSV via a store-by-index row kernel (room for a row
//     reserved once, short constants as fixed 16-byte stores, only the
//     bytes below the write index flushed; 3.0 M edge rows in 0.13 s on
//     one core) byte-identical to encoding/csv,
//     JSON-lines via the same kernel byte-identical to
//     encoding/json's default configuration (keys sorted, HTML
//     escaping, stdlib float formatting — fuzz-verified against the
//     stdlib encoders, so the byte stream is stable across releases
//     of this package), and a binary columnar format (.dsc: typed
//     column blocks with CRC-32C trailers, round-tripped by
//     OpenColumnar, the bulk-load path at ~4x CSV throughput). A
//     property whose short name collides with a structural JSONL key
//     ("id", "label", "tail", "head") or with another property is a
//     hard export error — it used to silently overwrite the field.
//     Every file passes one sink that counts its bytes, honours
//     the context on each flush and, for the daemon, takes the
//     manifest's SHA-256 from the encoder's buffers.
//     A property column that no task reads is deferred: its task
//     records the fill closure and the encoders run it chunk by
//     chunk as they write the file, so the column never exists in
//     memory (a reader that indexes it materialises it once); with
//     one garbage collection at the end of each structure and match
//     task, a matcher CSR of 4-byte neighbour ids — each edge stored
//     once, at its later-streamed end, when the match runs no
//     refinement — edge tables of uint32 endpoint ids (8 bytes an edge;
//     the files still carry 8-byte ids, so a node type holds at most
//     2^32-1 instances), 4-byte match order, groups and mapping,
//     4-byte LFR node state, a match that reuses its dead rank and
//     self-drawn order, and structure and match scratch sized once
//     from counts already known, the 300k-Person social job peaks at
//     55-56 MB, was 216, and the daemon's bipartite recommender job
//     (300k users, 30k products) at 33 MB, was 42.
//     Files stage as temp files and rename into place only after
//     every table succeeded, so a failed export never leaves a
//     partial directory. The exported bytes are hash-verified
//     identical at GOMAXPROCS 1, 2, 4 and 8 (internal/core
//     TestExportedDatasetGoldenDeterminism and its refined variant).
//
// # Serving generation: datasynthd
//
// The determinism contract is what makes generation servable as
// infrastructure. internal/service + cmd/datasynthd expose the engine
// over HTTP behind a bounded job queue and a content-addressable
// dataset cache keyed on (schema-semantics version, canonical schema,
// export format) — the canonical schema being dsl.Print's rendering,
// hashed by core.CanonicalHash, so surface spelling never splits the
// key and the embedded seed always does. Because a dataset is a pure
// function of that key, a cache hit is provably byte-identical to
// regeneration (pinned by TestServiceEndToEndByteIdentical against a
// fresh direct export), and concurrent identical submissions collapse
// onto one generation via singleflight — the job id is the cache key.
// Cache entries commit two-phase (staged export + manifest, then a
// directory rename) and carry per-file SHA-256s — the encoder's own,
// taken while writing, not a read-back; a corrupted entry is
// evicted at lookup and regenerated, never served. Per-job resource
// limits (max nodes/edges, queue bound, generation timeout via
// Engine.GenerateCtx's task-granular cancellation) and graceful
// SIGTERM drain make it safe to park in front of real traffic; see
// docs/service.md.
//
// The library lives under internal/ (see README.md for the map);
// cmd/datasynth generates datasets from DSL schemas (-format
// csv|jsonl|columnar; -validate prints the verdict, canonical hash,
// task plan and canonical text without generating), cmd/datasynthd
// serves generation over HTTP, cmd/sbmpart-eval regenerates
// the paper's evaluation and cmd/graphstats validates exported
// datasets in either connector format. The benchmarks in bench_test.go
// cover every table and figure of the paper, and export_bench_test.go
// tracks connector throughput; run them with
//
//	go test -bench=. -benchmem .
//
// while working on one function; performance claims are made with the
// repository's benchmark, go run -C bench . (see bench/README.md).
package datasynth
