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
//     onto a bounded worker pool, so independent schema elements —
//     property generation, structure generation, and SBM-Part matching
//     of unrelated types — run concurrently.
//   - Row level: property generation is embarrassingly parallel (every
//     value is a pure function of (id, r(id), deps)), so each property
//     task additionally fans row ranges out to workers.
//
// Determinism is independent of the worker count: every task keys its
// RNG streams off (schema seed, task id) and writes only its own
// output slot, so the same seed yields a byte-identical dataset whether
// the plan runs on one worker or on every core.
package core

import (
	"context"
	"fmt"
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
	PGens  *pgen.Registry
	SGens  *sgen.Registry
	// Workers bounds the parallelism of both the task scheduler and
	// per-property row generation; 0 means GOMAXPROCS (which also caps
	// any larger value), 1 runs the plan strictly sequentially. The
	// output is byte-identical at any value.
	Workers int
	// MatchWindow sets the stream window of the windowed-parallel
	// SBM-Part used by match tasks: 0 lets match.EffectiveWindow choose
	// (serial below three effective workers), negative forces the
	// serial stream, > 1 forces the windowed path. Every setting yields
	// a byte-identical dataset.
	MatchWindow int
	// RefineWindow sets the stream window of SBM-Part's re-streaming
	// refinement passes (the schema's `passes` knob): 0 inherits the
	// resolved MatchWindow, negative forces serial refinement. Every
	// setting yields a byte-identical dataset.
	RefineWindow int
	// ExportFormat selects the on-disk encoding used by Export
	// (the zero value is CSV).
	ExportFormat table.Format
	// ExportWorkers bounds how many tables Export writes concurrently:
	// 0 inherits Workers (and thus GOMAXPROCS when that is 0 too), 1 writes
	// one table at a time. File bytes are identical at any value.
	ExportWorkers int
	// ExportFS abstracts the export's filesystem for fault-injection
	// tests; nil means the real one.
	ExportFS faultfs.FS
	// Logf, if non-nil, receives progress lines. It may be called from
	// multiple scheduler workers concurrently.
	Logf func(format string, args ...any)

	// report of the most recent Generate, for Report().
	reportMu sync.Mutex
	report   *RunReport
}

// New returns an engine with the built-in generator registries.
func New(s *schema.Schema) *Engine {
	return &Engine{Schema: s, PGens: pgen.NewRegistry(), SGens: sgen.NewRegistry()}
}

// Report returns the per-task timing report of the most recent
// Generate call (nil before the first successful run). The report
// marks the plan's critical path — the dependency chain that bounds
// wall time at any worker count — which is the place to spend further
// intra-task parallelism.
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
	mu        sync.Mutex
	counts    map[string]int64
	nodeProps map[string]map[string]*table.PropertyTable
	edgeProps map[string]map[string]*table.PropertyTable
	edges     map[string]*table.EdgeTable
	matched   map[string]bool
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

func newRunState() *runState {
	return &runState{
		counts:     map[string]int64{},
		nodeProps:  map[string]map[string]*table.PropertyTable{},
		edgeProps:  map[string]map[string]*table.PropertyTable{},
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

func (st *runState) nodeProp(typeName, propName string) (*table.PropertyTable, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pt, ok := st.nodeProps[typeName][propName]
	return pt, ok
}

func (st *runState) setNodeProp(typeName, propName string, pt *table.PropertyTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.nodeProps[typeName] == nil {
		st.nodeProps[typeName] = map[string]*table.PropertyTable{}
	}
	st.nodeProps[typeName][propName] = pt
}

func (st *runState) edgeProp(edgeName, propName string) (*table.PropertyTable, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pt, ok := st.edgeProps[edgeName][propName]
	return pt, ok
}

func (st *runState) setEdgeProp(edgeName, propName string, pt *table.PropertyTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.edgeProps[edgeName] == nil {
		st.edgeProps[edgeName] = map[string]*table.PropertyTable{}
	}
	st.edgeProps[edgeName][propName] = pt
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
	plan, err := depgraph.Analyze(e.Schema)
	if err != nil {
		return nil, err
	}
	st := newRunState()
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
	workers := par.EffectiveWorkers(e.Workers)
	if workers > n {
		workers = n
	}

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
func (e *Engine) runTask(st *runState, plan *depgraph.Plan, t depgraph.Task) (note string, err error) {
	err = par.Safe(func() error {
		switch t.Kind {
		case depgraph.TaskProperty:
			return e.genNodeProperty(st, plan, t.Type, t.Prop)
		case depgraph.TaskStructure:
			note, err = e.genStructure(st, plan, t.Type)
			return err
		case depgraph.TaskMatch:
			note, err = e.matchEdge(st, plan, t.Type)
			return err
		case depgraph.TaskEdgeProperty:
			return e.genEdgeProperty(st, t.Type, t.Prop)
		default:
			return fmt.Errorf("core: unknown task kind %v", t.Kind)
		}
	})
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
	st.setCount(typeName, c)
	return c, nil
}

// tailCountFromEdgeCount applies the paper's getNumNodes path: size the
// tail domain so the generator produces ~edge.Count edges.
func (e *Engine) tailCountFromEdgeCount(edge *schema.EdgeType) (int64, error) {
	seed := e.structureSeed(edge.Name)
	if edge.Tail == edge.Head && e.SGens.HasMono(edge.Structure.Name) {
		g, err := e.SGens.BuildMono(edge.Structure.Name, edge.Structure.Params, seed)
		if err != nil {
			return 0, err
		}
		return g.NumNodesForEdges(edge.Count)
	}
	g, err := e.SGens.BuildBipartite(edge.Structure.Name, edge.Structure.Params, seed)
	if err != nil {
		return 0, err
	}
	return g.NumTailsForEdges(edge.Count)
}

func (e *Engine) structureSeed(edgeName string) uint64 {
	return xrand.NewStream(e.Schema.Seed).DeriveStream("structure." + edgeName).Seed()
}

func (e *Engine) propertySeed(typeName, propName string) xrand.Stream {
	return xrand.NewStream(e.Schema.Seed).DeriveStream("property." + typeName + "." + propName)
}

// genNodeProperty materialises one node property table in parallel.
// Columns minted by a fused operator are materialised directly from the
// fused labels instead of running the property generator.
func (e *Engine) genNodeProperty(st *runState, plan *depgraph.Plan, typeName, propName string) error {
	nt := e.Schema.NodeType(typeName)
	prop := nt.Property(propName)
	n, err := e.nodeCount(st, plan, typeName)
	if err != nil {
		return err
	}
	if fc := st.fusedCol(typeName, propName); fc != nil {
		if int64(len(fc.labels)) != n {
			return fmt.Errorf("core: fused column %s.%s has %d rows, expected %d", typeName, propName, len(fc.labels), n)
		}
		if prop.Kind != table.KindString {
			return fmt.Errorf("core: fused column %s.%s must be a string property", typeName, propName)
		}
		pt := table.NewPropertyTable(typeName+"."+propName, table.KindString, n)
		for id := int64(0); id < n; id++ {
			pt.SetString(id, fc.values[fc.labels[id]])
		}
		st.setNodeProp(typeName, propName, pt)
		return nil
	}
	gen, err := e.PGens.Build(prop.Generator.Name, prop.Generator.Params)
	if err != nil {
		return err
	}
	if err := checkKind(gen, prop); err != nil {
		return err
	}
	deps := make([]*table.PropertyTable, len(prop.DependsOn))
	for i, d := range prop.DependsOn {
		pt, ok := st.nodeProp(typeName, d)
		if !ok {
			return fmt.Errorf("core: dependency %s.%s not materialised", typeName, d)
		}
		deps[i] = pt
	}
	pt := table.NewPropertyTable(typeName+"."+propName, prop.Kind, n)
	stream := e.propertySeed(typeName, propName)
	if err := e.parallelFill(pt, n, gen, stream, func(id int64, buf []pgen.Value) []pgen.Value {
		for i, dp := range deps {
			buf[i] = valueAt(dp, id)
		}
		return buf[:len(deps)]
	}, len(deps)); err != nil {
		return err
	}
	st.setNodeProp(typeName, propName, pt)
	return nil
}

// parallelFill fans the id range out to workers; each worker computes
// rows independently thanks to in-place generation. A failing worker
// closes done before exiting, so the producer never blocks on a send
// nobody will receive — even when every worker has bailed out early.
// A panicking generator (bad parameter combinations can reach panics
// inside xrand) is recovered into a *par.PanicError and reported like
// any other row error, so a hostile property fails its task rather
// than the process.
func (e *Engine) parallelFill(pt *table.PropertyTable, n int64, gen pgen.Generator, stream xrand.Stream, depsFor func(id int64, buf []pgen.Value) []pgen.Value, arity int) error {
	workers := par.EffectiveWorkers(e.Workers)
	const chunk = 8192
	type job struct{ lo, hi int64 }
	jobs := make(chan job, workers)
	errs := make(chan error, workers)
	done := make(chan struct{})
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// par.Safe is the recover point: a panicking generator
			// surfaces as a *par.PanicError through the same error path
			// as an ordinary row failure.
			if err := par.Safe(func() error {
				buf := make([]pgen.Value, arity)
				for j := range jobs {
					select {
					case <-done:
						return nil // another worker failed; stop early
					default:
					}
					for id := j.lo; id < j.hi; id++ {
						v, err := gen.Run(id, stream, depsFor(id, buf))
						if err != nil {
							return fmt.Errorf("core: row %d: %w", id, err)
						}
						storeValue(pt, id, v)
					}
				}
				return nil
			}); err != nil {
				select {
				case errs <- err:
				default:
				}
				closeOnce.Do(func() { close(done) })
			}
		}()
	}
produce:
	for lo := int64(0); lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case jobs <- job{lo, hi}:
		case <-done:
			break produce
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// valueAt boxes a PT row as a pgen.Value.
func valueAt(pt *table.PropertyTable, id int64) pgen.Value {
	switch pt.Kind {
	case table.KindString:
		return pgen.StringValue(pt.String(id))
	case table.KindFloat:
		return pgen.FloatValue(pt.Float(id))
	case table.KindDate:
		return pgen.DateValue(pt.Int(id))
	default:
		return pgen.IntValue(pt.Int(id))
	}
}

// storeValue writes a pgen.Value into a PT row.
func storeValue(pt *table.PropertyTable, id int64, v pgen.Value) {
	switch pt.Kind {
	case table.KindString:
		pt.SetString(id, v.Str)
	case table.KindFloat:
		pt.SetFloat(id, v.Float)
	default:
		pt.SetInt(id, v.Int)
	}
}

// polymorphicKinds are generators whose output kind follows the
// declared property kind rather than a fixed kind.
var polymorphicKinds = map[string]bool{
	"endpoint-copy": true,
	"constant":      true,
	"sequence":      true,
}

func checkKind(gen pgen.Generator, prop *schema.Property) error {
	if polymorphicKinds[gen.Name()] {
		return nil
	}
	if gen.Kind() != prop.Kind {
		return fmt.Errorf("core: generator %s produces %v but property %s is declared %v",
			gen.Name(), gen.Kind(), prop.Name, prop.Kind)
	}
	return nil
}
