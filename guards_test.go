package datasynth

// Structural guards. Each [simplicity] change that deleted a second way
// of doing one thing left a row here that keeps the second way out: a
// directory set, whether test files count, and one check from a small
// fixed set, run over the Go syntax of the tree (go/parser and go/ast
// only, so the module stays dependency-free). Reading syntax rather
// than text means a comment naming a deleted function is no finding,
// and a field named EngineWorkers is one.
//
// Every row quotes, as a fixture, the code it was written against —
// from the tree before the deletion, the revision named in the path —
// and TestGuardFixtures asserts that each fixture fails its row, so a
// row that has stopped seeing anything fails too. TestGuards runs the
// table on this tree. Both run under `go test ./...` at the root.
//
// To add a row: delete the second way, copy the lines that were it
// from the parent tree into a fixture, and pick the narrowest check
// that fails on the fixture and passes here.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// A guard is one row of the table.
type guard struct {
	name   string
	reason string // what the row keeps true; printed with its findings
	// dirs are the directories read, slash-separated from the
	// repository root: "x" is that directory, "x/..." it and every
	// directory below, "..." the whole tree. except leaves directories
	// out, in the same form.
	dirs, except []string
	tests        bool // read _test.go files too
	check        check
	fixtures     []fixture // each must fail the row
}

// A fixture is a small tree, "revision:path" → source, quoted from the
// revision named; "sketch:path" is a form the row must also reject that
// no revision held.
type fixture map[string]string

type kind int

const (
	// declName: a declared function, method, type, variable, constant
	// or struct field whose name matches re; with types set, only a
	// struct field or variable whose type name matches it.
	declName kind = iota
	// ident: an identifier, or a pkg.Name selector, matching re.
	ident
	// literal: a string literal whose value matches re.
	literal
	// flagName: a flag defined in a file that imports package flag
	// (flag.Int, fs.StringVar, …) whose name matches re.
	flagName
	// count: the sites of a construct must be exactly want.
	count
)

type check struct {
	kind  kind
	re    string // what declName, ident, literal and flagName forbid
	allow string // names re matches that are allowed anyway
	types string // declName: the type names a field or variable may have to be found
	// count: the construct, whether to count the functions holding it
	// rather than its sites, and where the sites must be — each named
	// by the declaration it types, else by its enclosing function.
	site    construct
	perFunc bool
	want    []string
}

// A construct is something count counts. match reports whether n is
// one and, when n is the type of a field or variable (parent), the
// declared names.
type construct struct {
	what  string
	match func(n, parent ast.Node) (names []string, ok bool)
}

var (
	graphBuild = construct{"graph.From* call", func(n, _ ast.Node) ([]string, bool) {
		c, ok := n.(*ast.CallExpr)
		return nil, ok && isSelector(c.Fun, "graph", "From")
	}}
	statusWrite = construct{".status write", func(n, _ ast.Node) ([]string, bool) {
		a, ok := n.(*ast.AssignStmt)
		return nil, ok && slices.ContainsFunc(a.Lhs, func(e ast.Expr) bool {
			s, ok := e.(*ast.SelectorExpr)
			return ok && s.Sel.Name == "status"
		})
	}}
	doneClose = construct{"close(x.done)", func(n, _ ast.Node) ([]string, bool) {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) != 1 {
			return nil, false
		}
		f, ok := c.Fun.(*ast.Ident)
		s, isSel := c.Args[0].(*ast.SelectorExpr)
		return nil, ok && f.Name == "close" && isSel && s.Sel.Name == "done"
	}}
	goStmt = construct{"go statement", func(n, _ ast.Node) ([]string, bool) {
		_, ok := n.(*ast.GoStmt)
		return nil, ok
	}}
	chanType = construct{"chan type", func(n, _ ast.Node) ([]string, bool) {
		_, ok := n.(*ast.ChanType)
		return nil, ok
	}}
	mutex = construct{"sync.Mutex or sync.RWMutex", func(n, parent ast.Node) ([]string, bool) {
		if !isSelector(n, "sync", "Mutex") && !isSelector(n, "sync", "RWMutex") {
			return nil, false
		}
		switch p := parent.(type) {
		case *ast.Field:
			return identNames(p.Names), true
		case *ast.ValueSpec:
			return identNames(p.Names), true
		}
		return nil, true
	}}
	// fixpointLoop is a loop run until a flag stays down: its condition
	// is a variable the body sets back to true.
	fixpointLoop = construct{"fixpoint loop", func(n, _ ast.Node) ([]string, bool) {
		f, ok := n.(*ast.ForStmt)
		if !ok {
			return nil, false
		}
		flag, ok := f.Cond.(*ast.Ident)
		if !ok {
			return nil, false
		}
		raised := false
		ast.Inspect(f.Body, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok {
				for i, l := range a.Lhs {
					id, isID := l.(*ast.Ident)
					v, isV := a.Rhs[min(i, len(a.Rhs)-1)].(*ast.Ident)
					raised = raised || isID && id.Name == flag.Name && isV && v.Name == "true"
				}
			}
			return !raised
		})
		return nil, raised
	}}
	chungLuSearch = construct{"SearchFloat64s", func(n, _ ast.Node) ([]string, bool) {
		id, ok := n.(*ast.Ident)
		return nil, ok && id.Name == "SearchFloat64s"
	}}
)

// isSelector reports whether e is pkg.Name with Name starting with
// prefix.
func isSelector(e ast.Node, pkg, prefix string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Name == pkg && strings.HasPrefix(s.Sel.Name, prefix)
}

func identNames(ids []*ast.Ident) []string {
	var names []string
	for _, id := range ids {
		names = append(names, id.Name)
	}
	return names
}

// intType matches the integer type names.
const intType = `^u?int(8|16|32|64)?$`

// runPlanFixture is d97d35e^'s plan scheduler: a worker pool over a
// ready channel, with a run-state lock beside Engine.reportMu.
var runPlanFixture = fixture{"d97d35e^:internal/core/engine.go": `package core

type Engine struct {
	Logf func(format string, args ...any)

	reportMu sync.Mutex
	report   *RunReport
}

type runState struct {
	mu     sync.Mutex
	counts map[string]int64
}

func (e *Engine) runPlan(ctx context.Context, st *runState, plan *depgraph.Plan) error {
	ready := make(chan int, n)
	var (
		mu        sync.Mutex
		firstErr  error
		remaining = n
		closed    bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
}
`}

// transitionFixture is 099c5d7^'s job mutators, each writing a status
// and closing done itself.
var transitionFixture = fixture{"099c5d7^:internal/service/service.go": `package service

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = StatusFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) complete(m *Manifest, fromCache bool) {
	j.mu.Lock()
	j.status = StatusDone
	j.manifest = m
	j.cacheHit = fromCache
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) completeBypass(m *Manifest, dir string) {
	j.mu.Lock()
	j.status = StatusDone
	j.manifest = m
	j.bypassDir = dir
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}
`}

var guards = []guard{
	{
		name: "worker-fields",
		reason: "GOMAXPROCS is the only parallelism bound (par.Procs): fan-outs size themselves from it. " +
			"Config.JobWorkers is how many jobs the daemon runs, not how wide one fans out; " +
			"no other int field names a worker count or a stream window",
		dirs: []string{"cmd/...", "internal/..."}, tests: true,
		check: check{kind: declName, re: `(?i)(workers|window)$`, allow: `^JobWorkers$`, types: intType},
		fixtures: []fixture{
			{"af810ea^:internal/service/service.go": `package service

type Config struct {
	// JobWorkers bounds how many engines generate concurrently.
	// 0 means 2.
	JobWorkers int
	// EngineWorkers is the per-engine worker bound (core.Engine.Workers,
	// which resolves it); 0 means GOMAXPROCS.
	EngineWorkers int
}
`},
			{"646fe0e^:internal/match/match.go": `package match

type Options struct {
	Window int
	// Workers bounds the concurrency of the windowed scan phase;
	// 0 means GOMAXPROCS, 1 scans serially (still byte-identical).
	Workers int
	RefineWindow int
}
`},
		},
	},
	{
		name: "worker-flags",
		reason: "GOMAXPROCS is the only parallelism bound (par.Procs); " +
			"datasynthd -jobworkers is how many jobs the daemon runs, and no other flag names a worker count or a stream window",
		dirs: []string{"cmd/...", "internal/..."}, tests: true,
		check: check{kind: flagName, re: `(?i)(workers|window)$`, allow: `^jobworkers$`},
		fixtures: []fixture{
			{"af810ea^:cmd/datasynthd/main.go": `package main

import "flag"

func main() {
	queueDepth := flag.Int("queue", 64, "job queue bound; a full queue rejects submissions with 503")
	jobWorkers := flag.Int("jobworkers", 2, "concurrent generation jobs")
	engineWorkers := flag.Int("workers", 0, "per-engine worker bound (0 = GOMAXPROCS, which also caps larger values); output is byte-identical at any count")
}
`},
			{"646fe0e^:cmd/datasynth/main.go": `package main

import "flag"

func main() {
	window := flag.Int("window", 0, "SBM-Part stream window (0 = auto: serial below 3 effective workers, else 2048; negative = serial; > 1 forces windowed); output is byte-identical at any setting")
	refineWindow := flag.Int("refinewindow", 0, "stream window of SBM-Part's re-streaming refinement passes (0 = inherit -window, negative = serial); output is byte-identical at any setting")
}
`},
		},
	},
	{
		name: "worker-literals",
		reason: "GOMAXPROCS is the only parallelism bound (par.Procs), so no string names a worker count or a stream window: " +
			"not a flag, a JSON tag (`json:\"workers\"`) or a query parameter (?workers=)",
		dirs: []string{"cmd/...", "internal/..."}, tests: true,
		check: check{kind: literal, re: `(^|")(workers|window)([",]|$)`},
		fixtures: []fixture{
			{"af810ea^:cmd/datasynthd/main.go": `package main

func main() {
	engineWorkers := flag.Int("workers", 0, "per-engine worker bound (0 = GOMAXPROCS, which also caps larger values); output is byte-identical at any count")
}
`},
			{"646fe0e^:cmd/datasynth/main.go": `package main

func main() {
	window := flag.Int("window", 0, "SBM-Part stream window (0 = auto: serial below 3 effective workers, else 2048; negative = serial; > 1 forces windowed); output is byte-identical at any setting")
}
`},
			{"sketch:internal/service/service.go": `package service

type Config struct {
	JobWorkers    int  ` + "`json:\"job_workers\"`" + `
	EngineWorkers *int ` + "`json:\"workers,omitempty\"`" + `
}
`},
			{"sketch:internal/service/http.go": `package service

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("workers"))
}
`},
		},
	},
	{
		name: "ablation-switches",
		reason: "SBM-Part runs one configuration: random first-pass order, LDG capacity balancing, a target scaled to the edges placed so far; " +
			"the balance and final-target ablations lost to it under every target model and were deleted",
		dirs: []string{"internal/match/...", "internal/exp/..."}, tests: true,
		check: check{kind: declName, re: `^(Balance|FinalTarget|NoBalance)$`, types: `^bool$`},
		fixtures: []fixture{
			{"95805f4^:internal/match/match.go": `package match

type Options struct {
	Capacities []int64
	Balance bool
	Seed uint64
	FinalTarget bool
}
`},
			{"95805f4^:internal/exp/exp.go": `package exp

type Panel struct {
	// Balance toggles SBM-Part's capacity-balancing term (default on).
	NoBalance bool
}
`},
		},
	},
	{
		name:   "bfs-order",
		reason: "SBM-Part streams nodes in random order; the BFS-order ablation lost to it and was deleted",
		dirs:   []string{"internal/match/...", "internal/exp/..."}, tests: true,
		check: check{kind: ident, re: `^BFSOrder$`},
		fixtures: []fixture{{"95805f4^:internal/match/mapping.go": `package match

// BFSOrder returns nodes in breadth-first order from a pseudo-random
// root per component — an ablation stream order with high locality.
func BFSOrder(g *graph.Graph, seed uint64) []uint32 {
	n := g.N()
	order := make([]uint32, 0, n)
	return order
}
`}},
	},
	{
		name:   "one-order-check",
		reason: "MatchProperty and MatchBipartite share one front end, SBMPart.match, and streamOrder is its one stream-order check",
		dirs:   []string{"..."}, tests: true,
		check: check{kind: ident, re: `^checkStream$`},
		fixtures: []fixture{{"9950e33^:internal/match/stream.go": `package match

// checkStream validates the inputs every streaming partitioner shares:
// order must be a permutation of [0, n) and the capacities must cover n.
func checkStream(order []uint32, n int64, capacities []int64) error {
	if err := checkSizes(order, n, capacities); err != nil {
		return err
	}
	seen := make([]bool, n)
	return nil
}
`}},
	},
	{
		name:   "one-graph-build",
		reason: "internal/match builds its graph in one function, SBMPart.match, for both MatchProperty and MatchBipartite",
		dirs:   []string{"internal/match"},
		check:  check{kind: count, site: graphBuild, perFunc: true, want: []string{"SBMPart.match"}},
		fixtures: []fixture{{
			"9950e33^:internal/match/mapping.go": `package match

func MatchProperty(et *table.EdgeTable, n int64, rowLabels []int64, target *stats.Joint, opt Options) (*Result, error) {
	g, err := graph.FromEdgesStreamed(et.Tail, et.Head, n, rank)
	if err != nil {
		return nil, err
	}
}
`,
			"9950e33^:internal/match/bipartite.go": `package match

func MatchBipartite(et *table.EdgeTable, nTail, nHead int64, tailRowLabels, headRowLabels []int64, target *stats.Joint, opt Options) (*BipartiteResult, error) {
	times.OrderTime = lap(&mark)
	g, err := graph.FromBipartiteEdges(et.Tail, et.Head, nTail, nHead, rank)
	if err != nil {
		return nil, err
	}
}
`,
		}},
	},
	{
		name: "one-static-check",
		reason: "datasynth -validate is the CLI's one static check of a schema (verdict, canonical hash, task plan, canonical text); " +
			"-plan, -scenario and -name were folded into it",
		dirs:  []string{"cmd/datasynth"},
		check: check{kind: flagName, re: `^(plan|scenario|name)$`},
		fixtures: []fixture{{"cfa90a1^:cmd/datasynth/main.go": `package main

import "flag"

func main() {
	planOnly := flag.Bool("plan", false, "print the dependency-analysis task plan and exit")
	scenarioFile := flag.String("scenario", "", "validate a DSL file as a scenario and print the canonical text + hash PUT /v1/scenarios would register; no generation")
	scenarioName := flag.String("name", "", "scenario name to check against the registry's naming rule (with -scenario)")
}
`}},
	},
	{
		name: "no-scenario-validate",
		reason: "the registry's canonicalisation is private to internal/scenario: " +
			"validate a schema with core.ValidateSchema, register it with Registry.Put",
		dirs: []string{"..."}, except: []string{"internal/scenario/..."}, tests: true,
		check: check{kind: ident, re: `^scenario\.Validated?$`},
		fixtures: []fixture{{"cfa90a1^:cmd/datasynth/main.go": `package main

func main() {
	if *scenarioFile != "" {
		val, err := scenario.Validate(string(src))
		if err != nil {
			fatal(err)
		}
	}
}
`}},
	},
	{
		name: "one-dependency-decoder",
		reason: "schema.EdgeType.SplitDep is the one decoder of an edge property's tail./head. dependency; " +
			"the DSL parser reads the correlate clause's prefixes",
		dirs: []string{"..."}, except: []string{"internal/schema/...", "internal/dsl/..."},
		check: check{kind: literal, re: `^(tail|head)\.$`},
		fixtures: []fixture{
			{"cfa90a1^:internal/depgraph/depgraph.go": `package depgraph

func Analyze(s *schema.Schema) (*Plan, error) {
	for _, dep := range p.DependsOn {
		var dt Task
		switch {
		case len(dep) > 5 && dep[:5] == "tail.":
			dt = Task{Kind: TaskProperty, Type: e.Tail, Prop: dep[5:]}
		case len(dep) > 5 && dep[:5] == "head.":
			dt = Task{Kind: TaskProperty, Type: e.Head, Prop: dep[5:]}
		}
	}
}
`},
			{"cfa90a1^:internal/core/engine.go": `package core

func (e *Engine) buildGenerators() (map[string]*propGen, error) {
	for j, d := range p.DependsOn {
		switch {
		case edge != nil && len(d) > 5 && d[:5] == "tail.":
			pg.deps[j] = depRef{edge.Tail, d[5:], 1}
		case edge != nil && len(d) > 5 && d[:5] == "head.":
			pg.deps[j] = depRef{edge.Head, d[5:], 2}
		}
	}
}
`},
		},
	},
	{
		name:   "parse-only",
		reason: "dsl.Parse checks syntax only; schema.Validate runs in depgraph.Analyze alone",
		dirs:   []string{"internal/dsl/..."},
		check:  check{kind: ident, re: `^Validate$`},
		fixtures: []fixture{{"b22820f^:internal/dsl/parser.go": `package dsl

func Parse(src string) (*schema.Schema, error) {
	p := &parser{toks: toks}
	s, err := p.file()
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
`}},
	},
	{
		name:   "one-size-walk",
		reason: "core.EstimatedSizes walks the plan's tasks once, in their dependency order, so internal/core keeps no loop that re-walks them until nothing changes",
		dirs:   []string{"internal/core"},
		check:  check{kind: count, site: fixpointLoop},
		fixtures: []fixture{{"b22820f^:internal/core/sizes.go": `package core

func EstimatedSizes(s *schema.Schema) (nodes, edges int64, err error) {
	countNames := slices.Sorted(maps.Keys(plan.Counts))
	for changed := true; changed; {
		changed = false
		for _, name := range countNames {
			switch src.Kind {
			case depgraph.SourceExplicit:
				resolved[name] = s.NodeType(name).Count
				changed = true
			}
		}
	}
}
`}, {"sketch:internal/core/sizes.go": `package core

func EstimatedSizes(s *schema.Schema) (nodes, edges int64, err error) {
	changed := 0
	dirty := true
	for dirty {
		dirty = false
		for _, name := range countNames {
			if _, ok := resolved[name]; !ok && resolve(name) {
				dirty = true
				changed++
			}
		}
	}
}
`}},
	},
	{
		name: "one-status-writer",
		reason: "Service.transition is the only code that changes a job's state, so nothing leaves done or failed; " +
			"test fixtures that fake finished jobs are exempt",
		dirs:     []string{"internal/service/..."},
		check:    check{kind: count, site: statusWrite, want: []string{"Service.transition"}},
		fixtures: []fixture{transitionFixture},
	},
	{
		name:     "one-done-close",
		reason:   "Service.transition closes a job's done channel, once; test fixtures that fake finished jobs are exempt",
		dirs:     []string{"internal/service/..."},
		check:    check{kind: count, site: doneClose, want: []string{"Service.transition"}},
		fixtures: []fixture{transitionFixture},
	},
	{
		name: "no-reader-pins",
		reason: "LRU eviction drops an entry from the cache index and removes its directory under the index lock; " +
			"an open download keeps reading its file after the removal, so readers pin nothing: no reader count, deferred-removal map or release",
		dirs:  []string{"internal/service/..."},
		check: check{kind: ident, re: `^(dying|refs|release)$`},
		fixtures: []fixture{{"ab5362f^:internal/service/cache.go": `package service

type cacheEntry struct {
	manifest *Manifest
	refs     int  // open readers streaming from the entry directory
	dead     bool // evicted from the index; directory removal may be deferred
}

type diskCache struct {
	mu        sync.Mutex
	index     map[string]*cacheEntry   // committed entries, by key
	dying     map[string]*cacheEntry   // evicted with open readers; dir removal deferred
}

func (c *diskCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	var dir string
	if e.refs == 0 && e.dead && c.dying[e.key] == e {
		delete(c.dying, e.key)
		dir = c.dir.Path(e.key)
	}
	c.mu.Unlock()
}
`}},
	},
	{
		name:   "one-radix-kernel",
		reason: "internal/sgen has one LSD radix kernel, sortKeysLSD, for keys with and without a payload",
		dirs:   []string{"internal/sgen/..."}, tests: true,
		check: check{kind: ident, re: `^sortByKey$`},
		fixtures: []fixture{{"bd24107^:internal/sgen/dedup.go": `package sgen

func (d *edgeDedup) pairRound(et *table.EdgeTable, pending []int64, ok func(a, b int64) bool) []int64 {
	keys, idx := d.sortByKey(d.keys, d.idx)
}

func (d *edgeDedup) sortByKey(keys []uint64, idx []int32) ([]uint64, []int32) {
	n := len(keys)
	if n < 2 {
		return keys, idx
	}
}
`}},
	},
	{
		name: "one-power-law",
		reason: "a Zipf law is xrand.PowerLawInt from 1 (rank = value - 1) and xrand.GroupSizes holds the geometric PMF it reads, " +
			"so internal/ keeps no Zipf or Geometric sampler beside them",
		dirs:  []string{"internal/..."},
		check: check{kind: ident, re: `^(New)?(Zipf|Geometric)$`},
		fixtures: []fixture{
			{"b04a181^:internal/xrand/dist.go": `package xrand

type Zipf struct {
	d *Discrete
}

type Geometric struct {
	p float64
}

func NewGeometric(p float64) (*Geometric, error) {
	return &Geometric{p: p}, nil
}
`},
			{"b04a181^:internal/pgen/basic.go": `package pgen

func NewZipfCategorical(values []string, theta float64) (*Categorical, error) {
	z, err := xrand.NewZipf(len(values), theta)
	if err != nil {
		return nil, err
	}
}
`},
		},
	},
	{
		name:   "one-affinity-kernel",
		reason: "Darwini runs BTER's two wiring phases through sgen's one affinity kernel, so the Chung–Lu endpoint search is written once",
		dirs:   []string{"internal/sgen/..."},
		check:  check{kind: count, site: chungLuSearch, want: []string{"affinity.chungLu"}},
		fixtures: []fixture{{
			"b04a181^:internal/sgen/darwini.go": `package sgen

func (d *Darwini) Run(n int64) (*table.EdgeTable, error) {
	sample := func() int64 {
		u := q.Float64() * acc
		return demands[sort.SearchFloat64s(cum, u)].id
	}
}
`,
			"b04a181^:internal/sgen/bter.go": `package sgen

func (b *BTER) Run(n int64) (*table.EdgeTable, error) {
	sample := func() int64 {
		u := q.Float64() * acc
		return int64(sort.SearchFloat64s(cum, u))
	}
}
`,
		}},
	},
	{
		name: "plan-waves-no-go",
		reason: "the engine runs its task plan in dependency waves through par.ForEachCtx and stores each level's outputs between levels, " +
			"so internal/core starts no goroutine of its own",
		dirs:     []string{"internal/core/..."},
		check:    check{kind: count, site: goStmt},
		fixtures: []fixture{runPlanFixture},
	},
	{
		name:     "plan-waves-no-chan",
		reason:   "the engine runs its task plan in dependency waves through par.ForEachCtx; internal/core keeps no ready queue or other channel",
		dirs:     []string{"internal/core/..."},
		check:    check{kind: count, site: chanType},
		fixtures: []fixture{runPlanFixture},
	},
	{
		name:     "plan-waves-no-waitgroup",
		reason:   "the engine runs its task plan in dependency waves through par.ForEachCtx, which waits for each level",
		dirs:     []string{"internal/core/..."},
		check:    check{kind: ident, re: `^sync\.WaitGroup$`},
		fixtures: []fixture{runPlanFixture},
	},
	{
		name:     "plan-waves-one-lock",
		reason:   "no task writes shared state, so internal/core locks nothing but the run report (Engine.reportMu)",
		dirs:     []string{"internal/core/..."},
		check:    check{kind: count, site: mutex, want: []string{"reportMu"}},
		fixtures: []fixture{runPlanFixture},
	},
}

// goFile is one parsed source file.
type goFile struct {
	dir  string // slash-separated from the tree's root
	test bool
	f    *ast.File
}

type tree struct {
	fset  *token.FileSet
	files []*goFile
}

// add parses src as the file name: a path from the tree's root, or
// "revision:path" for a fixture.
func (tr *tree) add(name, src string) error {
	f, err := parser.ParseFile(tr.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	if _, p, ok := strings.Cut(name, ":"); ok {
		name = p
	}
	tr.files = append(tr.files, &goFile{path.Dir(name), strings.HasSuffix(name, "_test.go"), f})
	return nil
}

// loadTree parses every .go file under root, skipping the directories
// the go command skips (testdata, and names starting with . or _).
func loadTree(root string) (*tree, error) {
	tr := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		return tr.add(filepath.ToSlash(rel), string(src))
	})
	return tr, err
}

// liveTree is the repository, parsed once for every test here.
var liveTree = sync.OnceValues(func() (*tree, error) { return loadTree(".") })

// inDirs reports whether dir is one of the directory patterns.
func inDirs(dir string, patterns []string) bool {
	for _, p := range patterns {
		base, below := strings.CutSuffix(p, "/...")
		if p == "..." || dir == p || below && (dir == base || strings.HasPrefix(dir, base+"/")) {
			return true
		}
	}
	return false
}

// files returns the files of tr the row reads.
func (g *guard) files(tr *tree) []*goFile {
	var out []*goFile
	for _, f := range tr.files {
		if (g.tests || !f.test) && inDirs(f.dir, g.dirs) && !inDirs(f.dir, g.except) {
			out = append(out, f)
		}
	}
	return out
}

// find runs the row's check over the files it reads in tr and returns
// one line per finding.
func (g *guard) find(tr *tree) []string {
	c := g.check
	files := g.files(tr)
	if c.kind == count {
		return c.countSites(tr.fset, files)
	}
	re, allow := regexp.MustCompile(c.re), regexp.MustCompile(c.allow)
	bad := func(name string) bool { return re.MatchString(name) && (c.allow == "" || !allow.MatchString(name)) }
	var types *regexp.Regexp
	if c.types != "" {
		types = regexp.MustCompile(c.types)
	}
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", tr.fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, f := range files {
		importsFlag := slices.ContainsFunc(f.f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == `"flag"` })
		ast.Inspect(f.f, func(n ast.Node) bool {
			switch c.kind {
			case declName:
				for _, id := range declared(n, types) {
					if bad(id.Name) {
						report(id.Pos(), "declares %s", id.Name)
					}
				}
			case ident:
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && bad(x.Name+"."+n.Sel.Name) {
						report(n.Pos(), "names %s.%s", x.Name, n.Sel.Name)
					}
				case *ast.Ident:
					if bad(n.Name) {
						report(n.Pos(), "names %s", n.Name)
					}
				}
			case literal:
				if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING {
					if v, err := strconv.Unquote(l.Value); err == nil && bad(v) {
						report(l.Pos(), "string literal %s", l.Value)
					}
				}
			case flagName:
				if name, ok := flagDefined(n); ok && importsFlag && bad(name) {
					report(n.Pos(), "defines flag -%s", name)
				}
			}
			return true
		})
	}
	return out
}

// declared returns the names n declares: a function or method, a type,
// a constant or variable, or struct fields. With types non-nil, only
// the fields and variables whose type is a name matching it.
func declared(n ast.Node, types *regexp.Regexp) []*ast.Ident {
	typed := func(typ ast.Expr, names []*ast.Ident) []*ast.Ident {
		if types == nil {
			return names
		}
		if id, ok := typ.(*ast.Ident); ok && types.MatchString(id.Name) {
			return names
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.FuncDecl:
		return typed(nil, []*ast.Ident{n.Name})
	case *ast.TypeSpec:
		return typed(nil, []*ast.Ident{n.Name})
	case *ast.ValueSpec:
		return typed(n.Type, n.Names)
	case *ast.StructType:
		var ids []*ast.Ident
		for _, f := range n.Fields.List {
			ids = append(ids, typed(f.Type, f.Names)...)
		}
		return ids
	}
	return nil
}

// flagDefiners are the flag.FlagSet methods (and package flag
// functions) that define a flag; the flag's name is the call's first
// string literal.
var flagDefiners = []string{
	"Bool", "BoolFunc", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var", "Func",
	"Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
	"Uint", "Uint64", "Uint64Var", "UintVar", "Var",
}

func flagDefined(n ast.Node) (string, bool) {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains(flagDefiners, s.Sel.Name) {
		return "", false
	}
	for _, a := range c.Args {
		if l, ok := a.(*ast.BasicLit); ok && l.Kind == token.STRING {
			name, err := strconv.Unquote(l.Value)
			return name, err == nil
		}
	}
	return "", false
}

// countSites finds the construct's sites, names each by the declaration
// it types or else by its enclosing function, and reports every site
// outside want, a second site in one place unless perFunc, and a want
// with no site.
func (c check) countSites(fset *token.FileSet, files []*goFile) []string {
	type site struct {
		name string
		pos  token.Position
	}
	var sites []site
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f.f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			stack = append(stack, n)
			names, ok := c.site.match(n, parent)
			if !ok {
				return true
			}
			if len(names) == 0 {
				names = []string{enclosingFunc(stack)}
			}
			for _, name := range names {
				sites = append(sites, site{name, fset.Position(n.Pos())})
			}
			return true
		})
	}
	var out []string
	seen := map[string]bool{}
	for _, s := range sites {
		switch {
		case !slices.Contains(c.want, s.name):
			out = append(out, fmt.Sprintf("%s: %s (%s)", s.pos, c.site.what, s.name))
		case seen[s.name] && !c.perFunc:
			out = append(out, fmt.Sprintf("%s: second %s (%s)", s.pos, c.site.what, s.name))
		}
		seen[s.name] = true
	}
	for _, w := range c.want {
		if !seen[w] {
			out = append(out, fmt.Sprintf("no %s (%s)", c.site.what, w))
		}
	}
	return out
}

// enclosingFunc names the top-level function on stack, F or T.M, or
// says "package level".
func enclosingFunc(stack []ast.Node) string {
	for _, n := range stack {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil {
			return fd.Name.Name
		}
		typ := fd.Recv.List[0].Type
		if s, ok := typ.(*ast.StarExpr); ok {
			typ = s.X
		}
		switch t := typ.(type) {
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		}
		return typ.(*ast.Ident).Name + "." + fd.Name.Name
	}
	return "package level"
}

// TestGuards runs every row over the repository: each must read some
// file and find nothing.
func TestGuards(t *testing.T) {
	tr, err := liveTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			if len(g.files(tr)) == 0 {
				t.Fatalf("reads no file under %v", g.dirs)
			}
			if found := g.find(tr); len(found) > 0 {
				t.Errorf("%s\n%s", strings.Join(found, "\n"), g.reason)
			}
		})
	}
}

// TestGuardFixtures checks that every row fails on each fixture it
// quotes, so a row that has stopped seeing its construct fails here.
func TestGuardFixtures(t *testing.T) {
	names := map[string]bool{}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			if names[g.name] || g.reason == "" || len(g.fixtures) == 0 {
				t.Fatal("a row needs a unique name, a reason and a fixture")
			}
			names[g.name] = true
			for _, fx := range g.fixtures {
				tr := &tree{fset: token.NewFileSet()}
				paths := slices.Sorted(maps.Keys(fx))
				for _, p := range paths {
					if err := tr.add(p, fx[p]); err != nil {
						t.Fatal(err)
					}
				}
				if len(g.files(tr)) != len(paths) {
					t.Errorf("fixture %v lies outside the row's files", paths)
				} else if len(g.find(tr)) == 0 {
					t.Errorf("fixture %v passes the row", paths)
				}
			}
		})
	}
}

// ciFixture quotes two stale lanes: af810ea^'s race lane, whose
// RMATWorkerCountByteIdentical and RMATShard tests went with the
// worker knob, and a fuzz smoke pointed at a package that does not
// hold its target.
const ciFixture = `      - name: Race (sharded RMAT determinism stress + kernel golden hashes, explicit)
        run: go test -race -run 'RMATWorkerCountByteIdentical|RMATGoldenHash|RMATShard|RMATDedupBuffers|TestZipfAttachmentGolden' -count 2 ./internal/sgen
      - name: Fuzz smoke (edge dedup vs map reference)
        run: go test -run '^$' -fuzz FuzzEdgeDedup -fuzztime 30s ./internal/graph
`

// TestCITestLists checks that the CI workflow's go test lines name
// tests that exist: every -run alternative matches a Test, Fuzz or
// Example function, and every -bench alternative a Benchmark, declared
// in a package the line names; every -fuzz names exactly one Fuzz
// target of its package. Otherwise a renamed test silently leaves its
// race, fault or fuzz lane.
func TestCITestLists(t *testing.T) {
	tr, err := liveTree()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(tr)
	checked, stale := staleTestNames(string(ci), funcs)
	if checked == 0 {
		t.Fatal("read no -run, -bench or -fuzz name")
	}
	if len(stale) > 0 {
		t.Errorf("ci.yml names tests that do not exist:\n%s", strings.Join(stale, "\n"))
	}
	_, stale = staleTestNames(ciFixture, funcs)
	for _, name := range []string{"RMATWorkerCountByteIdentical", "RMATShard", "FuzzEdgeDedup"} {
		if !strings.Contains(strings.Join(stale, "\n"), `"`+name+`"`) {
			t.Errorf("the fixture's stale %s passes; found %q", name, stale)
		}
	}
	// A pattern's first level names the functions; the rest are subtests.
	if _, stale := staleTestNames("        run: go test -run 'TestGuards/one-graph-build' .\n", funcs); len(stale) > 0 {
		t.Errorf("a subtest pattern reads as stale: %q", stale)
	}
}

// testFuncs maps each directory to the Test, Benchmark, Fuzz and
// Example functions its test files declare.
func testFuncs(tr *tree) map[string][]string {
	funcs := map[string][]string{}
	for _, f := range tr.files {
		if !f.test {
			continue
		}
		for _, d := range f.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && slices.ContainsFunc(
				[]string{"Test", "Benchmark", "Fuzz", "Example"}, func(p string) bool { return strings.HasPrefix(fd.Name.Name, p) }) {
				funcs[f.dir] = append(funcs[f.dir], fd.Name.Name)
			}
		}
	}
	return funcs
}

// staleTestNames reads every go test command of a workflow (one per
// line or per && clause, after any cd) and returns how many names it
// checked and one line per name that resolves to nothing.
func staleTestNames(ci string, funcs map[string][]string) (checked int, stale []string) {
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	for i, line := range strings.Split(ci, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		dir := "."
		for _, cmd := range strings.Split(line, "&&") {
			args := strings.Fields(cmd)
			if len(args) == 2 && args[0] == "cd" {
				dir = path.Join(dir, args[1])
				continue
			}
			at := slices.Index(args, "go")
			if at < 0 || at+1 >= len(args) || args[at+1] != "test" {
				continue
			}
			var pkgs []string
			pats := map[string]string{}
			for j := at + 2; j < len(args) && !strings.HasPrefix(args[j], "#"); j++ {
				a := args[j]
				if a == "." || strings.HasPrefix(a, "./") {
					pkgs = append(pkgs, path.Join(dir, a))
				}
				name, val, hasVal := strings.Cut(strings.TrimPrefix(a, "-"), "=")
				if _, ok := kinds[name]; ok && a[0] == '-' {
					if !hasVal && j+1 < len(args) {
						j++
						val = args[j]
					}
					pats[name] = strings.Trim(val, `'"`)
				}
			}
			for flag, pat := range pats {
				if pat == "^$" {
					continue
				}
				var names []string
				for d, fns := range funcs {
					if inDirs(d, pkgs) {
						for _, fn := range fns {
							if slices.ContainsFunc(kinds[flag], func(p string) bool { return strings.HasPrefix(fn, p) }) {
								names = append(names, fn)
							}
						}
					}
				}
				// go test splits a pattern at its top-level slashes, one
				// part per subtest level; the first names the functions.
				top := splitTop(pat, '/')[0]
				alts := splitTop(top, '|')
				if flag == "fuzz" {
					alts = []string{top}
				}
				for _, alt := range alts {
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						stale = append(stale, fmt.Sprintf("ci.yml:%d: -%s %q: %v", i+1, flag, alt, err))
						continue
					}
					n := 0
					for _, fn := range names {
						if re.MatchString(fn) {
							n++
						}
					}
					if n == 0 || flag == "fuzz" && n != 1 {
						stale = append(stale, fmt.Sprintf("ci.yml:%d: -%s %q matches %d of %v's %v functions", i+1, flag, alt, n, pkgs, kinds[flag]))
					}
				}
			}
		}
	}
	return checked, stale
}

// splitTop splits a regexp at each sep outside brackets and
// parentheses and not escaped, as go test splits -run at '/'.
func splitTop(re string, sep byte) []string {
	var parts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, re[start:i])
			start = i + 1
		}
	}
	return append(parts, re[start:])
}
