// Package core implements the DataSynth engine: the pipeline of the
// paper's Figure 2. Given a schema (from the DSL or built
// programmatically) it runs the dependency analysis, then executes the
// resulting plan — generate node properties, generate structure per
// edge type, match properties with structure, generate edge
// properties — and returns a table.Dataset ready for export.
//
// Execution is dependency-driven and concurrent at two levels,
// mirroring the paper's shared-nothing cluster design in-process:
//
//   - Task level: depgraph exposes the plan as a DAG (Plan.Deps), and
//     the engine dispatches every task whose dependencies are satisfied
//     onto a pool of GOMAXPROCS goroutines, so independent schema
//     elements — property generation, structure generation, and
//     SBM-Part matching of unrelated types — run concurrently.
//   - Row level: property generation is embarrassingly parallel (every
//     value is a pure function of (id, r(id), deps)), so each property
//     task additionally fans chunks of rows out (table.Materialize).
//
// Every fan-out sizes itself from GOMAXPROCS (par.Procs); there is no
// other parallelism setting. Determinism is independent of it: every
// task keys its RNG streams off (schema seed, task id) and writes only
// its own output slot, so the same seed yields a byte-identical dataset
// whether the process runs on one P or on every core.
//
// # Memory
//
// The process's peak is meant to be the plan's live set — the edge
// tables, the columns some task reads, one task's scratch — not
// everything it ever allocated. Two rules get there, both decided by
// the plan alone, with no setting:
//
//   - A property or edge-property task no other task depends on (a sink
//     of depgraph.Plan.Deps: not a dependency, not correlated, not
//     endpoint-copied) is deferred. Its task records the column's fill
//     closure and returns; the export's encoders run the closure chunk
//     by chunk as they write the file (table.PropertyTable.ReadChunk),
//     so the column is never stored. A reader that wants random access
//     to it (Int, String, …) materialises it then. The timing report
//     shows such a task as "deferred → export:<file>" and the fill's
//     time in that file's FileStat.Fill. A generator failure in a
//     deferred column is the export's failure: it names the column and
//     the rows, a panic arrives as a *par.PanicError, and the export
//     commits nothing.
//   - A structure task and a match task end with one forced garbage
//     collection (runTask). They are the tasks that build and drop tens of
//     megabytes of pointer-free scratch, and a job runs so few collector
//     cycles (six, on the 300k-Person social schema) that the pacer
//     would otherwise leave that scratch mapped under the next phase.
//     Measured on that schema: 216 MB of peak RSS before either rule,
//     162 MB with deferral alone, 127 MB with both, for four
//     collections of 0.15–0.25 ms each in a one-second job. GOGC and the
//     memory limit stay the operator's.
package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"datasynth/internal/depgraph"
	"datasynth/internal/faultfs"
	"datasynth/internal/par"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/sgen"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Engine generates property graphs from a schema.
type Engine struct {
	Schema *schema.Schema
	// PGens resolves property generator specs; tests add custom
	// generators to it.
	PGens pgen.Registry
	// ExportFormat selects the on-disk encoding used by Export
	// (the zero value is CSV).
	ExportFormat table.Format
	// ExportFS abstracts the export's filesystem for fault-injection
	// tests; nil means the real one.
	ExportFS faultfs.FS
	// ExportDigest makes Export hash every file as it is encoded; the
	// digests come back in Report().ExportFiles. The generation service
	// builds its manifests from them.
	ExportDigest bool
	// Logf, if non-nil, receives progress lines. It may be called from
	// multiple scheduler workers concurrently.
	Logf func(format string, args ...any)

	// report of the most recent Generate, for Report().
	reportMu sync.Mutex
	report   *RunReport
}

// New returns an engine with the built-in property generators.
func New(s *schema.Schema) *Engine {
	return &Engine{Schema: s, PGens: pgen.NewRegistry()}
}

// Report returns the per-task timing report of the most recent
// Generate call (nil before the first successful run). The report
// marks the plan's critical path — the dependency chain that bounds
// wall time on any number of cores — which is the place to spend
// further intra-task parallelism.
func (e *Engine) Report() *RunReport {
	e.reportMu.Lock()
	defer e.reportMu.Unlock()
	return e.report
}

// run-state, private to one Generate call. Scheduler workers execute
// tasks concurrently, so every map access goes through the mu-guarded
// accessors below; each task writes only its own output slot, which
// keeps the state itself order-independent.
type runState struct {
	mu     sync.Mutex
	counts map[string]int64
	// props holds the generated tables by (node or edge type, property);
	// type names are unique across both.
	props   map[[2]string]*table.PropertyTable
	edges   map[string]*table.EdgeTable
	matched map[string]bool
	// gens holds every property's generator, built and checked before
	// the first task runs. A property's own task sets its rows; nothing
	// else is written afterwards.
	gens map[string]*propGen
	// fusedProps holds property columns produced by fused operators
	// (value indices plus the value universe); genNodeProperty
	// materialises these instead of running a generator.
	fusedProps map[string]map[string]*fusedColumn
}

// fusedColumn is a property column minted by a fused operator.
type fusedColumn struct {
	labels []int64
	values []string
}

func newRunState(gens map[string]*propGen) *runState {
	return &runState{
		gens:       gens,
		counts:     map[string]int64{},
		props:      map[[2]string]*table.PropertyTable{},
		edges:      map[string]*table.EdgeTable{},
		matched:    map[string]bool{},
		fusedProps: map[string]map[string]*fusedColumn{},
	}
}

func (st *runState) count(name string) (int64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c, ok := st.counts[name]
	return c, ok
}

func (st *runState) setCount(name string, c int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.counts[name] = c
}

func (st *runState) prop(typeName, propName string) (*table.PropertyTable, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pt, ok := st.props[[2]string{typeName, propName}]
	return pt, ok
}

func (st *runState) setProp(typeName, propName string, pt *table.PropertyTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.props[[2]string{typeName, propName}] = pt
}

func (st *runState) edgeTable(name string) (*table.EdgeTable, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	et, ok := st.edges[name]
	return et, ok
}

func (st *runState) setEdgeTable(name string, et *table.EdgeTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.edges[name] = et
}

func (st *runState) isMatched(name string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.matched[name]
}

func (st *runState) setMatched(name string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.matched[name] = true
}

func (st *runState) fusedCol(typeName, propName string) *fusedColumn {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fusedProps[typeName][propName]
}

func (st *runState) setFusedCol(typeName, propName string, fc *fusedColumn) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fusedProps[typeName] == nil {
		st.fusedProps[typeName] = map[string]*fusedColumn{}
	}
	st.fusedProps[typeName][propName] = fc
}

// Generate executes the schema and returns the dataset.
func (e *Engine) Generate() (*table.Dataset, error) {
	return e.GenerateCtx(context.Background())
}

// GenerateCtx is Generate with cooperative cancellation: when ctx is
// done, no further task is dispatched, in-flight tasks finish, and the
// context's error is returned. Cancellation is task-granular — the
// engine never abandons a half-written table — which is the contract
// the generation service's per-job timeout relies on: a timed-out job
// releases its worker as soon as the current task completes.
func (e *Engine) GenerateCtx(ctx context.Context) (*table.Dataset, error) {
	plan, gens, err := e.prepare()
	if err != nil {
		return nil, err
	}
	// A property nothing in the plan reads is left to the export.
	for i, sink := range plan.Sinks() {
		if t := plan.Tasks[i]; t.Kind == depgraph.TaskProperty || t.Kind == depgraph.TaskEdgeProperty {
			gens[t.Type+"."+t.Prop].deferred = sink
		}
	}
	st := newRunState(gens)
	if err := e.runPlan(ctx, st, plan); err != nil {
		return nil, err
	}
	// Node types with no properties still need their counts resolved
	// for the dataset (e.g. a bare join type).
	for i := range e.Schema.Nodes {
		if _, err := e.nodeCount(st, plan, e.Schema.Nodes[i].Name); err != nil {
			return nil, err
		}
	}
	return e.assemble(st), nil
}

// prepare is the validation both GenerateCtx and ValidateSchema run, so
// that validation accepts exactly what generation does: the dependency
// analysis, every declared node count held to maxCount, every property
// generator built and checked, and every structure generator built,
// before any task runs.
func (e *Engine) prepare() (*depgraph.Plan, map[string]*propGen, error) {
	plan, err := depgraph.Analyze(e.Schema)
	if err != nil {
		return nil, nil, err
	}
	for i := range e.Schema.Nodes {
		if err := checkCount("node type "+e.Schema.Nodes[i].Name, e.Schema.Nodes[i].Count); err != nil {
			return nil, nil, err
		}
	}
	gens, err := e.buildGenerators()
	if err != nil {
		return nil, nil, err
	}
	for i := range e.Schema.Edges {
		if _, _, err := e.structureGen(&e.Schema.Edges[i]); err != nil {
			return nil, nil, err
		}
	}
	return plan, gens, nil
}

// runPlan executes the plan's task DAG on a bounded worker pool: a task
// is dispatched as soon as every dependency has completed. Ready-queue
// sends never block (the channel holds every task), completion
// bookkeeping happens under one mutex, and the first task error stops
// dispatch; in-flight tasks drain before the error is returned.
func (e *Engine) runPlan(ctx context.Context, st *runState, plan *depgraph.Plan) error {
	n := len(plan.Tasks)
	if n == 0 {
		return nil
	}
	workers := min(par.Procs(), n)

	dependents := make([][]int, n)
	indeg := make([]int, n)
	for i, deps := range plan.Deps {
		indeg[i] = len(deps)
		for _, d := range deps {
			dependents[d] = append(dependents[d], i)
		}
	}

	ready := make(chan int, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready <- i
		}
	}

	// Per-task timing slots: every worker writes only the slot of the
	// task it executed, so no lock is needed beyond the scheduler's.
	timings := make([]TaskTiming, n)
	for i, t := range plan.Tasks {
		timings[i] = TaskTiming{ID: t.ID(), Kind: t.Kind}
	}
	runStart := time.Now()

	var (
		mu        sync.Mutex
		firstErr  error
		remaining = n
		closed    bool
	)
	closeReady := func() {
		if !closed {
			closed = true
			close(ready)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The scheduling loop itself runs under par.Safe: task
			// panics are already recovered inside runTask, so this
			// guards the bookkeeping around it — a panic there fails
			// the plan (and releases the other workers via closeReady)
			// instead of killing the process. The mu-guarded sections
			// are plain assignments and guarded closes and cannot
			// panic, so the recovery path never runs with mu held.
			if perr := par.Safe(func() error {
				for i := range ready {
					mu.Lock()
					if firstErr == nil && ctx.Err() != nil {
						firstErr = fmt.Errorf("core: generation canceled: %w", ctx.Err())
						closeReady()
					}
					failed := firstErr != nil
					mu.Unlock()
					if failed {
						continue // drain without executing
					}
					t := plan.Tasks[i]
					e.logf("task %s", t.ID())
					taskStart := time.Now()
					note, err := e.runTask(st, plan, t)
					timings[i].Start = taskStart.Sub(runStart)
					timings[i].Duration = time.Since(taskStart)
					timings[i].Note = note
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = fmt.Errorf("core: task %s: %w", t.ID(), err)
						}
						closeReady()
						mu.Unlock()
						continue
					}
					for _, j := range dependents[i] {
						indeg[j]--
						if indeg[j] == 0 && !closed {
							ready <- j
						}
					}
					remaining--
					if remaining == 0 {
						closeReady()
					}
					mu.Unlock()
				}
				return nil
			}); perr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: scheduler worker: %w", perr)
				}
				closeReady()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		report := buildReport(plan, timings, time.Since(runStart))
		e.reportMu.Lock()
		e.report = report
		e.reportMu.Unlock()
		e.logf("plan done: total %v, critical path %v (%d tasks)",
			report.Total, report.CriticalPathTime, len(report.CriticalPath))
	}
	return firstErr
}

// runTask dispatches one plan task to its executor. The returned note
// is a free-form per-task annotation for the timing report (match
// tasks report their per-pass SBM-Part breakdown there). A panicking
// generator or matcher is recovered into a *par.PanicError here, so a
// bad task fails the plan like any other task error instead of
// killing the process — the isolation contract the generation service
// relies on to survive hostile schemas.
//
// A structure or match task ends with one garbage collection, inside
// its timed duration. Those two kinds build and drop tens of megabytes
// of pointer-free scratch (LFR's dedup buffers, RMAT's key buffers, the
// matcher's CSR) and a whole job runs only a handful of collector
// cycles, so without it the pacer leaves that dead scratch mapped under
// whatever the next task allocates, and the process's peak is its
// allocation history rather than its live set. The heap is a few large
// pointer-free slices, so a cycle costs well under a millisecond.
func (e *Engine) runTask(st *runState, plan *depgraph.Plan, t depgraph.Task) (note string, err error) {
	err = par.Safe(func() error {
		switch t.Kind {
		case depgraph.TaskProperty:
			note, err = e.genNodeProperty(st, plan, t.Type, t.Prop)
		case depgraph.TaskStructure:
			note, err = e.genStructure(st, plan, t.Type)
		case depgraph.TaskMatch:
			note, err = e.matchEdge(st, plan, t.Type)
		case depgraph.TaskEdgeProperty:
			note, err = e.genEdgeProperty(st, t.Type, t.Prop)
		default:
			err = fmt.Errorf("core: unknown task kind %v", t.Kind)
		}
		return err
	})
	if err == nil && (t.Kind == depgraph.TaskStructure || t.Kind == depgraph.TaskMatch) {
		runtime.GC()
	}
	return note, err
}

func (e *Engine) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// nodeCount resolves (and caches) a node type's instance count using
// the plan's count sources. Concurrent tasks may resolve the same type
// simultaneously; the computation is deterministic, so the duplicated
// work writes the same value.
func (e *Engine) nodeCount(st *runState, plan *depgraph.Plan, typeName string) (int64, error) {
	if c, ok := st.count(typeName); ok {
		return c, nil
	}
	src, ok := plan.Counts[typeName]
	if !ok {
		return 0, fmt.Errorf("core: no count source for node type %q", typeName)
	}
	var c int64
	switch src.Kind {
	case depgraph.SourceExplicit:
		c = e.Schema.NodeType(typeName).Count
	case depgraph.SourceEdgeHead:
		et, ok := st.edgeTable(src.Edge)
		if !ok {
			return 0, fmt.Errorf("core: count of %q needs structure of %q first", typeName, src.Edge)
		}
		c = et.MaxNode()
		// A 1→* edge's heads are dense [0, m), so MaxNode == edge count;
		// an empty table still implies zero heads.
	case depgraph.SourceEdgeCount:
		edge := e.Schema.EdgeType(src.Edge)
		n, err := e.tailCountFromEdgeCount(edge)
		if err != nil {
			return 0, err
		}
		c = n
	}
	if c <= 0 {
		return 0, fmt.Errorf("core: resolved count of %q is %d", typeName, c)
	}
	if err := checkCount("node type "+typeName, c); err != nil {
		return 0, err
	}
	st.setCount(typeName, c)
	return c, nil
}

// tailCountFromEdgeCount applies the paper's getNumNodes path: size the
// tail domain so the generator produces ~edge.Count edges.
func (e *Engine) tailCountFromEdgeCount(edge *schema.EdgeType) (int64, error) {
	mono, bip, err := e.structureGen(edge)
	if err != nil {
		return 0, err
	}
	if mono != nil {
		return mono.NumNodesForEdges(edge.Count)
	}
	return bip.NumTailsForEdges(edge.Count)
}

// structureGen builds the edge type's structure generator through the
// registry: the monopartite one of that name when the edge stays inside
// one node type (and is not fused — the fused operator sizes itself from
// a bipartite out-degree model), else the bipartite one. Exactly one of
// mono and bip is set. The registry checks the spec — the generator
// exists, has every parameter named and accepts their values — so a bad
// one fails here, in O(parameters), naming the edge.
func (e *Engine) structureGen(edge *schema.EdgeType) (mono sgen.Generator, bip sgen.BipartiteGenerator, err error) {
	spec, seed := edge.Structure, e.structureSeed(edge.Name)
	fused := edge.Correlation != nil && edge.Correlation.Fused
	if sgens := sgen.NewRegistry(); edge.Tail == edge.Head && !fused && sgens.HasMono(spec.Name) {
		mono, err = sgens.BuildMono(spec.Name, spec.Params, seed)
	} else {
		bip, err = sgens.BuildBipartite(spec.Name, spec.Params, seed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: edge %s: %w", edge.Name, err)
	}
	return mono, bip, nil
}

// maxCount is the most instances a node type holds: table.MaxNodes,
// since endpoint ids are uint32, or math.MaxInt where an int is 32 bits,
// since every per-node slice is indexed by an int.
const maxCount = min(table.MaxNodes, math.MaxInt)

// checkCount refuses n nodes of what past maxCount, naming the bound,
// before anything is sized by it.
func checkCount(what string, n int64) error {
	if n > maxCount {
		bound := "table.MaxNodes, the uint32 endpoint id bound"
		if maxCount < table.MaxNodes {
			bound = "math.MaxInt, the int bound on this platform"
		}
		return fmt.Errorf("core: %s has %d nodes, more than the %d of %s", what, n, int64(maxCount), bound)
	}
	return nil
}

func (e *Engine) structureSeed(edgeName string) uint64 {
	return xrand.NewStream(e.Schema.Seed).DeriveStream("structure." + edgeName).Seed()
}

func (e *Engine) propertySeed(typeName, propName string) xrand.Stream {
	return xrand.NewStream(e.Schema.Seed).DeriveStream("property." + typeName + "." + propName)
}

// propGen is one property's generator, with what the engine needs to
// run it: the property, the type that owns it, its row count (the
// declared one; 0 when only generation tells, until the property's task
// has run), where its dependencies live and whether the column is
// deferred — no task reads it, so the export fills it.
type propGen struct {
	gen      pgen.Generator
	prop     *schema.Property
	owner    string
	rows     int64
	deps     []depRef
	deferred bool
}

// depRef locates one dependency of a property. An edge property reads
// a sibling edge property row for row (via 0), or a node property of
// the edge's tail (via 1) or head (via 2).
type depRef struct {
	owner, name string
	via         int
}

// buildGenerators builds the generator of every node and edge property
// through the registry and checks it against the schema — the generator
// exists, its parameters are valid, it produces the declared kind and
// has the dependencies it needs — so that a bad generator spec fails
// before any row is generated. The schema must have passed
// depgraph.Analyze. Keys are "<type>.<property>".
func (e *Engine) buildGenerators() (map[string]*propGen, error) {
	gens := map[string]*propGen{}
	build := func(owner string, rows int64, edge *schema.EdgeType, props []schema.Property) error {
		for i := range props {
			p := &props[i]
			gen, err := e.PGens.Build(p.Generator.Name, p.Generator.Params)
			if err != nil {
				return fmt.Errorf("core: property %s.%s: %w", owner, p.Name, err)
			}
			pg := &propGen{gen: gen, prop: p, owner: owner, rows: rows, deps: make([]depRef, len(p.DependsOn))}
			for j, d := range p.DependsOn {
				switch {
				case edge != nil && len(d) > 5 && d[:5] == "tail.":
					pg.deps[j] = depRef{edge.Tail, d[5:], 1}
				case edge != nil && len(d) > 5 && d[:5] == "head.":
					pg.deps[j] = depRef{edge.Head, d[5:], 2}
				default:
					pg.deps[j] = depRef{owner, d, 0}
				}
			}
			gens[owner+"."+p.Name] = pg
		}
		return nil
	}
	for i := range e.Schema.Nodes {
		if err := build(e.Schema.Nodes[i].Name, e.Schema.Nodes[i].Count, nil, e.Schema.Nodes[i].Properties); err != nil {
			return nil, err
		}
	}
	for i := range e.Schema.Edges {
		// An edge's count is a target the structure generator approximates.
		if err := build(e.Schema.Edges[i].Name, 0, &e.Schema.Edges[i], e.Schema.Edges[i].Properties); err != nil {
			return nil, err
		}
	}
	for _, key := range slices.Sorted(maps.Keys(gens)) {
		if err := checkGenerator(gens[key], gens); err != nil {
			return nil, fmt.Errorf("core: property %s: %w", key, err)
		}
	}
	for i := range e.Schema.Edges {
		// A fused edge draws its head values from the head property's
		// generator, whose vocabulary and marginal P(Y) must be finite.
		edge := &e.Schema.Edges[i]
		if c := edge.Correlation; c != nil && c.Fused {
			gen := gens[edge.Head+"."+c.HeadProperty].gen
			if _, ok := gen.(*pgen.Categorical); !ok {
				return nil, fmt.Errorf("core: fused edge %s needs a categorical generator for %s.%s, got %s",
					edge.Name, edge.Head, c.HeadProperty, gen.Name())
			}
		}
	}
	return gens, nil
}

// checkGenerator checks one built generator against its property: the
// dependency count, the kind — a generator's own, except that sequence
// also numbers days and endpoint-copy takes the kind of what it
// copies — and that a date property stays inside the date domain as far
// as the schema tells (dateRange).
func checkGenerator(pg *propGen, gens map[string]*propGen) error {
	if len(pg.deps) < pg.gen.Arity() {
		return fmt.Errorf("generator %s needs %d dependencies, `given` names %d", pg.gen.Name(), pg.gen.Arity(), len(pg.deps))
	}
	kind := pg.gen.Kind()
	switch pg.gen.(type) {
	case *pgen.Sequence:
		if pg.prop.Kind == table.KindDate {
			kind = table.KindDate
		}
	case *pgen.EndpointCopy:
		kind = pg.dep(0, gens).prop.Kind
	}
	if kind != pg.prop.Kind {
		return fmt.Errorf("generator %s produces %v but the property is declared %v", pg.gen.Name(), kind, pg.prop.Kind)
	}
	if lo, hi, ok := dateRange(pg, gens); ok && kind == table.KindDate && (lo < table.MinDate || hi > table.MaxDate) {
		return fmt.Errorf("generator %s can produce a day outside the date domain %s … %s",
			pg.gen.Name(), table.FormatDate(table.MinDate), table.FormatDate(table.MaxDate))
	}
	return nil
}

// dep returns the generator of pg's i-th dependency; schema.Validate
// (run by depgraph.Analyze) has resolved every name.
func (pg *propGen) dep(i int, gens map[string]*propGen) *propGen {
	return gens[pg.deps[i].owner+"."+pg.deps[i].name]
}

// dateRange bounds the days pg's values can take from the schema alone,
// through chains of endpoint-copy and max-endpoint-date: lo is a lower
// bound and hi a day the column can reach. ok is false when nothing is
// known — a generator registered from outside, say — and the encoders'
// own check is then the only one. Both ends are clamped to one day
// outside the domain, so that sums along a chain cannot overflow.
func dateRange(pg *propGen, gens map[string]*propGen) (lo, hi int64, ok bool) {
	clamp := func(d int64) int64 { return min(max(d, table.MinDate-1), table.MaxDate+1) }
	switch g := pg.gen.(type) {
	case *pgen.UniformDate:
		return clamp(g.From), clamp(g.To), true
	case *pgen.UniformInt:
		return clamp(g.Lo), clamp(g.Hi), true
	case *pgen.Sequence:
		// Without a declared count only the first row's day is known.
		lo = clamp(g.Offset)
		return lo, clamp(lo + min(max(pg.rows, 1), table.MaxDate-table.MinDate+2) - 1), true
	case *pgen.EndpointCopy:
		if len(pg.deps) > 0 {
			return dateRange(pg.dep(0, gens), gens)
		}
	case *pgen.MaxEndpointDate:
		// The maximum is at least each dependency, known or not.
		lo, hi = table.MinDate-1, table.MinDate-1
		for i := range pg.deps {
			if dlo, dhi, dok := dateRange(pg.dep(i, gens), gens); dok {
				lo, hi, ok = max(lo, dlo), max(hi, dhi), true
			}
		}
		return clamp(lo + 1), clamp(hi + g.MaxLagDays), ok
	}
	return 0, 0, false
}

// genNodeProperty produces one node property table. Columns minted by a
// fused operator are materialised directly from the fused labels
// instead of running the property generator. The note says where a
// deferred column's fill will run.
func (e *Engine) genNodeProperty(st *runState, plan *depgraph.Plan, typeName, propName string) (string, error) {
	n, err := e.nodeCount(st, plan, typeName)
	if err != nil {
		return "", err
	}
	pg := st.gens[typeName+"."+propName]
	if fc := st.fusedCol(typeName, propName); fc != nil {
		if int64(len(fc.labels)) != n {
			return "", fmt.Errorf("core: fused column %s.%s has %d rows, expected %d", typeName, propName, len(fc.labels), n)
		}
		pt := table.NewStringTable(typeName+"."+propName, n, fc.values)
		codes, _ := pt.Coded()
		for id, label := range fc.labels {
			codes[id] = uint32(label)
		}
		st.setProp(typeName, propName, pt)
		return "", nil
	}
	pt, err := e.generate(st, pg, n, nil)
	if err != nil {
		return "", err
	}
	st.setProp(typeName, propName, pt)
	return deferredNote(pt, table.NodeFileName(typeName, e.ExportFormat)), nil
}

// deferredNote is the timing-report note of a property task whose
// column was left to the export of file.
func deferredNote(pt *table.PropertyTable, file string) string {
	if !pt.Deferred() {
		return ""
	}
	return "deferred → export:" + file
}

// generate builds the n-row column of pg's property: the one path every
// generated column takes. et is the matched edge table of an edge
// property, nil for a node property. Every value is a pure function of
// (id, r(id), deps) — in-place generation — so the column is its fill
// closure: the generator, its stream, its dependency columns and the
// endpoint slices they are gathered through, run over a chunk of
// ChunkRows ids at a time, on any goroutine, in any order. A column some
// task reads is filled into storage here, on the engine's workers; a
// deferred one is returned as the closure alone, and the export's
// encoders run it chunk by chunk into their scratch
// (table.PropertyTable.ReadChunk), so the column is never held. A
// failing or panicking chunk (bad parameter combinations can reach
// panics inside xrand) fails the fill — this task, or the export —
// naming the column and the rows, never the process.
func (e *Engine) generate(st *runState, pg *propGen, n int64, et *table.EdgeTable) (*table.PropertyTable, error) {
	// A dependency is read in place when it has this column's rows
	// (via nil), and gathered through the edge table when it is an
	// endpoint's.
	srcs := make([]*table.PropertyTable, len(pg.deps))
	via := make([][]uint32, len(pg.deps))
	for i, d := range pg.deps {
		var ok bool
		if srcs[i], ok = st.prop(d.owner, d.name); !ok {
			return nil, fmt.Errorf("core: dependency %s.%s not materialised", d.owner, d.name)
		}
		if d.via == 1 {
			via[i] = et.Tail
		} else if d.via == 2 {
			via[i] = et.Head
		}
	}
	name := pg.owner + "." + pg.prop.Name
	var dict []string
	if c, ok := pg.gen.(pgen.Coded); ok && pg.prop.Kind == table.KindString {
		dict = c.Vocabulary(srcs)
	}
	stream := e.propertySeed(pg.owner, pg.prop.Name)
	// Dependency chunks, and the buffers gathers fill, are reused from
	// chunk to chunk.
	scratch := &sync.Pool{New: func() any {
		deps := make([]table.Chunk, len(srcs))
		return &deps
	}}
	pt := table.NewDeferredTable(name, pg.prop.Kind, n, dict, func(dst *table.Chunk, lo, hi int64) error {
		buf := scratch.Get().(*[]table.Chunk)
		defer scratch.Put(buf)
		deps := *buf
		for i, src := range srcs {
			if via[i] == nil {
				deps[i] = src.Chunk(lo, hi)
			} else {
				src.Gather(via[i][lo:hi], &deps[i])
			}
		}
		if err := par.Safe(func() error { return pg.gen.Fill(dst, lo, hi, stream, deps) }); err != nil {
			return fmt.Errorf("core: property %s rows [%d,%d): %w", name, lo, hi, err)
		}
		return nil
	})
	// The rows are known now, which is what bounds a sequence of days
	// (dateRange) on a type whose count the schema does not declare.
	pg.rows = n
	if lo, hi, ok := dateRange(pg, st.gens); ok && pg.prop.Kind == table.KindDate {
		pt.SetDateBounds(lo, hi)
	}
	if pg.deferred {
		return pt, nil
	}
	return pt, pt.Materialize()
}
