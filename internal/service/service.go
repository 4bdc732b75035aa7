// Package service implements datasynthd: an HTTP daemon that accepts
// DSL schemas, runs them through the core engine on a bounded job
// queue, and streams exported datasets back in any of the three export
// formats.
//
// The design move is a content-addressable dataset cache keyed on
// (canonical schema hash, export format) — the canonical hash covers
// the schema version and the seed, see core.CanonicalHash — combined
// with singleflight collapsing of concurrent identical submissions.
// Both are sound only because of the engine's determinism contract: a
// dataset is a pure function of its key, byte-identical at any worker
// count, window size, or scheduling order, so a cache hit is provably
// byte-identical to regeneration and N concurrent identical submits
// need exactly one generation.
//
// Job lifecycle: queued → running → done | failed, or queued → done on
// a disk-cache hit; Service.transition makes every move. The job id IS
// the cache key, so identical schemas submitted at any time share one
// job and one cache entry; a failed job is retried by the next
// submission of the same schema. Admission enforces per-job resource
// limits (declared node/edge counts), the queue is bounded (a full
// queue rejects with ErrQueueFull rather than buffering unboundedly),
// and running jobs are bounded by a worker pool. Generation enforces
// the limits again on the actual dataset and honours a per-job timeout
// via the engine's task-granular cancellation.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/faultfs"
	"datasynth/internal/par"
	"datasynth/internal/scenario"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// Config parameterises a Service.
type Config struct {
	// CacheDir is the root of the content-addressable dataset cache.
	CacheDir string
	// CacheMaxBytes bounds the total size of committed cache entries
	// (sum of manifest file sizes). Storing past the bound evicts the
	// least recently used entries; a download already streaming from
	// one still completes. 0 means unbounded.
	CacheMaxBytes int64
	// QueueDepth bounds how many jobs may wait for a worker; a full
	// queue rejects submissions (ErrQueueFull). 0 means 64.
	QueueDepth int
	// JobWorkers bounds how many engines generate concurrently; they
	// share the process's GOMAXPROCS, which is the only bound on what
	// each fans out to. 0 means 2.
	JobWorkers int
	// MaxNodes / MaxEdges cap a job's dataset size, enforced at
	// admission on the schema's declared counts and after generation on
	// the actual dataset. 0 means unlimited.
	MaxNodes int64
	MaxEdges int64
	// JobTimeout bounds one generation; a timed-out job fails and
	// releases its worker at the next task boundary. 0 means no limit.
	JobTimeout time.Duration
	// ScenarioDir, when non-empty, enables the named-scenario registry
	// rooted there (PUT/GET/DELETE /v1/scenarios, submit-by-name, and
	// server-side sweeps). Empty disables the scenario surface.
	ScenarioDir string
	// FS, if non-nil, routes all cache and export disk I/O through it —
	// the fault-injection seam (faultfs.InjectFS in tests). Nil means
	// the real filesystem.
	FS faultfs.FS
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c *Config) jobWorkers() int {
	if c.JobWorkers <= 0 {
		return 2
	}
	return c.JobWorkers
}

// Submission errors the HTTP layer maps to distinct status codes.
var (
	// ErrQueueFull: the bounded job queue is at capacity (503).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining: the service is shutting down (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// LimitError reports a schema exceeding a per-job resource limit (422).
type LimitError struct{ msg string }

func (e *LimitError) Error() string { return e.msg }

// internalError marks a server-side fault (cache I/O) surfacing from
// Submit, as opposed to a bad submission; the HTTP layer maps it to
// 500 so clients don't misread an operator problem as a schema error.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Job is one generation request, shared by every submitter of the same
// schema (the id is the cache key). Service.transition is the only code
// that writes the fields under mu; everything else reads them through
// state.
type Job struct {
	id      string
	schema  *schema.Schema
	format  table.Format
	created time.Time

	mu       sync.Mutex
	status   JobStatus
	errMsg   string
	started  time.Time
	finished time.Time
	cacheHit bool // completed straight from the disk cache
	// bypassDir, when non-empty, is the staging directory this job's
	// files are served from: the cache refused the entry (disk full,
	// I/O fault) but the export itself succeeded, so the job completed
	// in degraded cache-bypass mode instead of failing.
	bypassDir string
	manifest  *Manifest

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// jobState is a consistent copy of a job's mutable fields.
type jobState struct {
	status            JobStatus
	errMsg            string
	started, finished time.Time
	cacheHit          bool
	bypassDir         string
	manifest          *Manifest
}

func (j *Job) state() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobState{j.status, j.errMsg, j.started, j.finished, j.cacheHit, j.bypassDir, j.manifest}
}

func (st JobStatus) terminal() bool { return st == StatusDone || st == StatusFailed }

// ID returns the job id (the cache key).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Manifest returns the cache-entry manifest of a completed job, nil
// otherwise.
func (j *Job) Manifest() *Manifest {
	if st := j.state(); st.status == StatusDone {
		return st.manifest
	}
	return nil
}

// JobView is an immutable snapshot of a job for serialization.
type JobView struct {
	ID       string    `json:"id"`
	Status   JobStatus `json:"status"`
	Graph    string    `json:"graph"`
	Seed     uint64    `json:"seed"`
	Format   string    `json:"format"`
	CacheHit bool      `json:"cache_hit"`
	// Degraded: the job completed in cache-bypass mode — downloads work
	// and are byte-identical to a cached run, but the dataset was not
	// committed to the cache and lives only as long as the job record.
	Degraded bool            `json:"degraded,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
	Nodes    int64           `json:"nodes,omitempty"`
	Edges    int64           `json:"edges,omitempty"`
	Files    []ManifestFile  `json:"files,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	st := j.state()
	v := JobView{
		ID:       j.id,
		Status:   st.status,
		Graph:    j.schema.Name,
		Seed:     j.schema.Seed,
		Format:   j.format.String(),
		CacheHit: st.cacheHit,
		Degraded: st.bypassDir != "",
		Created:  j.created,
		Error:    st.errMsg,
	}
	if !st.started.IsZero() {
		v.Started = &st.started
	}
	if !st.finished.IsZero() {
		v.Finished = &st.finished
	}
	if m := st.manifest; m != nil && st.status == StatusDone {
		v.Nodes, v.Edges = m.Nodes, m.Edges
		v.Files = m.Files
		v.Report = m.Report
	}
	return v
}

// BypassDir returns the staging directory a degraded job serves from,
// or "" for cache-backed jobs.
func (j *Job) BypassDir() string { return j.state().bypassDir }

// SubmitResult is the outcome of one submission.
type SubmitResult struct {
	Job *Job
	// CacheHit: the dataset was already on disk; the job is done.
	CacheHit bool
	// Deduped: an identical job was already queued or running
	// (singleflight); this submission rides along on it.
	Deduped bool
}

// Service is the caching generation service.
type Service struct {
	cfg   Config
	cache *diskCache
	scen  *scenario.Registry // nil when Config.ScenarioDir is empty
	start time.Time
	// newEngine builds a job's engine: core.New, unless a test planted a
	// generator that fails.
	newEngine func(*schema.Schema) *core.Engine

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool
	// drainCh closes when Drain starts, waking ?wait long-polls so an
	// HTTP shutdown is never stuck behind a poller.
	drainCh chan struct{}
	queue   chan *Job
	wg      sync.WaitGroup

	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	dedupHits     atomic.Int64
	evictions     atomic.Int64 // integrity evictions (corrupt entries)
	jobEvictions  atomic.Int64
	generations   atomic.Int64
	inFlight      atomic.Int64
	submits       atomic.Int64
	writeFailures atomic.Int64 // JSON responses that failed mid-write
	panics        atomic.Int64 // panics recovered into failed jobs
	storeRetries  atomic.Int64 // cache-store attempts beyond the first
	bypasses      atomic.Int64 // jobs completed in cache-bypass mode

	// Scenario-surface counters (all zero when the registry is off).
	namedSubmits atomic.Int64 // submissions resolved through a scenario ref
	anonSubmits  atomic.Int64 // submissions carrying their own schema text
	scenarioPuts atomic.Int64 // new scenario versions committed
	scenarioDels atomic.Int64 // scenarios deleted
	sweepSubmits atomic.Int64 // accepted POST /v1/sweeps requests
	sweepPoints  atomic.Int64 // jobs submitted on behalf of sweeps

	sweepMu sync.Mutex
	sweeps  map[string]*Sweep

	// degraded latches on when a cache store exhausts its retries and a
	// job completes by bypass; it clears on the next successful store.
	// /v1/readyz reports it so an orchestrator can steer traffic away
	// from a daemon whose disk is sick while it keeps serving.
	degraded atomic.Bool

	phases [numPhases]latencyHist // per-phase latency, served by /v1/metrics
}

// New starts a service: creates the cache directory and launches the
// job worker pool. Stop it with Drain.
func New(cfg Config) (*Service, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("service: CacheDir is required")
	}
	cache, err := newDiskCache(cfg.CacheDir, cfg.CacheMaxBytes, cfg.FS, cfg.Logf)
	if err != nil {
		return nil, err
	}
	var scen *scenario.Registry
	if cfg.ScenarioDir != "" {
		scen, err = scenario.NewRegistry(cfg.ScenarioDir, cfg.FS, cfg.Logf)
		if err != nil {
			return nil, err
		}
	}
	s := &Service{
		cfg:       cfg,
		cache:     cache,
		scen:      scen,
		start:     time.Now(),
		newEngine: core.New,
		jobs:      map[string]*Job{},
		sweeps:    map[string]*Sweep{},
		drainCh:   make(chan struct{}),
		queue:     make(chan *Job, cfg.queueDepth()),
	}
	for w := 0; w < cfg.jobWorkers(); w++ {
		s.wg.Add(1)
		// A job worker drains the queue until it closes. runJob recovers
		// a panic in the job's pipeline into a failed job; what escapes
		// it — a Config.Logf that panics on the line reporting the
		// failure — is recovered here, per job, and counted, so the
		// worker takes the next job. Nothing is logged for it: that
		// logger may panic again.
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				if par.Safe(func() error { s.runJob(j); return nil }) != nil {
					s.panics.Add(1)
				}
			}
		}()
	}
	return s, nil
}

// CacheKey derives the content address of (schema, format): the
// canonical schema hash — which embeds the schema version and the
// seed — joined with the format name, so the same schema exported in
// two formats occupies two independent entries.
func CacheKey(s *schema.Schema, f table.Format) string {
	return core.CanonicalHash(s) + "-" + f.String()
}

// Submit parses, validates, admits and enqueues a schema; or returns
// the existing identical job (singleflight) or a completed job served
// straight from the disk cache. src is DSL text.
func (s *Service) Submit(src string, format table.Format) (SubmitResult, error) {
	s.submits.Add(1)
	s.anonSubmits.Add(1)
	sch, err := dsl.Parse(src)
	if err != nil {
		return SubmitResult{}, err
	}
	if err := core.ValidateSchema(sch); err != nil {
		return SubmitResult{}, err
	}
	if err := s.checkDeclaredLimits(sch); err != nil {
		return SubmitResult{}, err
	}
	return s.submitSchema(sch, CacheKey(sch, format), format)
}

// submitSchema enqueues a schema its caller has validated and checked
// against the size limits, under key = CacheKey(sch, format) — the
// shared tail of every submission path (anonymous text, scenario ref,
// sweep point). The key is derived from the schema itself, so a named
// submit and an anonymous submit of the same resolved text collapse
// onto one job, one cache entry, one singleflight group.
func (s *Service) submitSchema(sch *schema.Schema, key string, format table.Format) (SubmitResult, error) {
	// Singleflight, round 1: an identical job already queued, running,
	// or completed collapses this submission onto it.
	s.mu.Lock()
	if res, ok := s.rideAlongLocked(key); ok {
		s.mu.Unlock()
		return res, nil
	}
	s.mu.Unlock()

	// Disk lookup outside the service lock: validating an entry hashes
	// its files, which must not serialize unrelated submissions.
	m, evicted, err := s.cache.lookup(key)
	if err != nil {
		return SubmitResult{}, &internalError{err}
	}
	if evicted {
		s.evictions.Add(1)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Round 2: somebody may have submitted the same schema while we
	// were hashing.
	if res, ok := s.rideAlongLocked(key); ok {
		return res, nil
	}
	// About to insert a job either way below: garbage-collect the map
	// first so long-running services don't accumulate one Job per
	// distinct schema forever.
	s.pruneJobsLocked()
	j := newJob(key, sch, format)
	if m != nil {
		s.transition(j, StatusDone, change{manifest: m, fromCache: true})
		s.jobs[key] = j
		return SubmitResult{Job: j, CacheHit: true}, nil
	}
	if s.draining {
		return SubmitResult{}, ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		return SubmitResult{}, ErrQueueFull
	}
	// Count the miss only for admitted work: a load-shed 503 says
	// nothing about the cache, and counting it would crater the
	// reported hit rate exactly when the operator is staring at it.
	s.cacheMisses.Add(1)
	s.jobs[key] = j
	s.logf("job %s queued (graph %s, seed %d, %s)", shortKey(key), sch.Name, sch.Seed, format)
	return SubmitResult{Job: j}, nil
}

func newJob(key string, sch *schema.Schema, format table.Format) *Job {
	return &Job{
		id:      key,
		schema:  sch,
		format:  format,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// rideAlongLocked collapses a submission onto the identical job in the
// map: a queued or running one (singleflight dedup proper), or a done
// one whose dataset is still in the cache or its bypass directory (a
// hit on the in-memory tier of the cache). A done job whose entry LRU
// eviction pulled would hand the client downloads that all 404, so it
// leaves the map. Caller holds s.mu.
func (s *Service) rideAlongLocked(key string) (SubmitResult, bool) {
	j, ok := s.jobs[key]
	if !ok {
		return SubmitResult{}, false
	}
	switch st := j.state(); {
	case st.status == StatusFailed:
		return SubmitResult{}, false
	case st.status != StatusDone:
		s.dedupHits.Add(1)
		return SubmitResult{Job: j, Deduped: true}, true
	case s.cache.has(key) || st.bypassDir != "":
		s.cacheHits.Add(1)
		return SubmitResult{Job: j, CacheHit: true, Deduped: true}, true
	}
	delete(s.jobs, key)
	return SubmitResult{}, false
}

// maxJobs bounds the in-memory job map: an insert that would push the
// map past it first evicts the oldest finished jobs.
const maxJobs = 4096

// pruneJobsLocked garbage-collects the in-memory job map ahead of one
// insert: while the insert would push the map past maxJobs, the oldest
// finished jobs go. Queued and running jobs are never evicted (the
// queue owns them). Eviction is safe: a done job's dataset persists in
// the disk cache, so resubmitting its schema is a cache hit, and a
// failed job would be retried by the next submission anyway. Caller
// holds s.mu.
func (s *Service) pruneJobsLocked() {
	if len(s.jobs) < maxJobs {
		return
	}
	type finishedJob struct {
		key string
		jobState
	}
	var fin []finishedJob
	for key, j := range s.jobs {
		if st := j.state(); st.status.terminal() {
			fin = append(fin, finishedJob{key, st})
		}
	}
	sort.Slice(fin, func(a, b int) bool { return fin[a].finished.Before(fin[b].finished) })
	for _, f := range fin {
		if len(s.jobs) < maxJobs {
			break
		}
		// A degraded job's dataset lives only in its bypass directory;
		// evicting the job record is the moment to reclaim the disk.
		if f.bypassDir != "" {
			s.cache.dir.Remove(f.bypassDir)
		}
		delete(s.jobs, f.key)
		s.jobEvictions.Add(1)
	}
}

// Job returns a job by id (cache key), or nil.
func (s *Service) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runJob generates, size-checks, exports and commits one job. The
// entire pipeline runs inside par.Safe: a panic anywhere in it — a
// generator bug, a bad schema tripping library code, a Config.Logf
// that panics — is recovered into a failed job (error message carrying
// the stack) instead of killing the worker goroutine and with it the
// whole daemon. A job that was already done stays done. A panic in the
// failed move itself (its log line) is the job worker's to recover.
func (s *Service) runJob(j *Job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if err := par.Safe(func() error { return s.executeJob(j) }); err != nil {
		s.transition(j, StatusFailed, change{err: err})
	}
}

// executeJob is the runJob pipeline body; it moves j to running, and
// on success to done, and returns the failure otherwise.
func (s *Service) executeJob(j *Job) error {
	s.transition(j, StatusRunning, change{})
	ctx := context.Background()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	eng := s.newEngine(j.schema)
	eng.ExportFormat = j.format
	eng.ExportFS = s.cfg.FS
	eng.ExportDigest = true // the manifest's per-file SHA-256

	genStart := time.Now()
	d, err := eng.GenerateCtx(ctx)
	if err != nil {
		return err
	}
	s.phases[phaseGenerate].observe(time.Since(genStart))
	var nodes, edges int64
	for _, n := range d.NodeCounts {
		nodes += n
	}
	for _, et := range d.Edges {
		edges += et.Len()
	}
	// The authoritative check: the actual dataset, inferred counts too.
	if err := s.checkLimits("dataset has ", nodes, edges); err != nil {
		return err
	}
	stageDir, err := s.cache.dir.Stage(j.id)
	if err != nil {
		return err
	}
	// The job deadline covers the whole pipeline: the export below is
	// ctx-bounded (cancellation aborts within one encoder flush with the
	// staging temps cleaned up) and takes the manifest's digests as it
	// writes, so a job cannot run long past JobTimeout just because
	// generation squeaked in under it.
	expStart := time.Now()
	if err := eng.ExportCtx(ctx, d, stageDir); err != nil {
		s.cache.dir.Remove(stageDir)
		return err
	}
	s.phases[phaseExport].observe(time.Since(expStart))
	report := eng.Report()
	if len(report.ExportFiles) == 0 {
		s.cache.dir.Remove(stageDir)
		return fmt.Errorf("service: export of %s wrote no files", shortKey(j.id))
	}
	// The match phase is carved out of the generate wall from the
	// timings the engine already records: the summed duration of the
	// run's match tasks — the paper pipeline's dominant stage.
	var matchWall time.Duration
	for i := range report.Timings {
		if report.Timings[i].Kind == depgraph.TaskMatch {
			matchWall += report.Timings[i].Duration
		}
	}
	s.phases[phaseMatch].observe(matchWall)
	reportJSON, err := json.Marshal(report)
	if err != nil {
		s.cache.dir.Remove(stageDir)
		return err
	}
	m := &Manifest{
		Version:       1,
		SchemaVersion: core.SchemaVersion,
		Key:           j.id,
		Graph:         j.schema.Name,
		Seed:          j.schema.Seed,
		Format:        j.format.String(),
		CanonicalSHA:  core.CanonicalHash(j.schema),
		Created:       time.Now().UTC(),
		Nodes:         nodes,
		Edges:         edges,
		Files:         manifestEntries(report.ExportFiles),
		Report:        reportJSON,
	}
	storeStart := time.Now()
	stored, err := s.storeWithRetry(ctx, j.id, stageDir, m)
	if err == nil {
		s.phases[phaseHash].observe(time.Since(storeStart))
		// A successful commit is proof the disk recovered; clear the
		// degraded latch.
		s.setDegraded(false)
		s.transition(j, StatusDone, change{manifest: stored})
		return nil
	}
	// Degraded cache-bypass: the cache cannot commit the entry (disk
	// full, persistent I/O fault) but the export itself succeeded and
	// sits intact in the staging directory. Serving it from there
	// salvages work that already succeeded — the job completes, its
	// downloads stream from the stage dir, and only the caching is
	// lost. The daemon flips its readiness to degraded so orchestrators
	// notice; a canceled/timed-out job still fails outright. The
	// manifest already carries the encoder's digests, the same integrity
	// metadata as a cached entry, with no further read of the failing
	// disk.
	if ctxErr := ctx.Err(); ctxErr != nil {
		s.cache.dir.Remove(stageDir)
		return err
	}
	s.setDegraded(true)
	s.transition(j, StatusDone, change{manifest: m, bypassDir: stageDir, err: err})
	return nil
}

// A failed cache store is tried storeAttempts times in all, pausing
// storeBackoff before the first retry and doubling the pause after
// each, before the job degrades to cache-bypass.
const (
	storeAttempts = 3
	storeBackoff  = 25 * time.Millisecond
)

// storeWithRetry commits a staged entry, retrying transient failures.
// It checks ctx before every attempt and stops when ctx ends during a
// pause, returning the last store error (ctx's, if no attempt ran).
func (s *Service) storeWithRetry(ctx context.Context, key, stageDir string, m *Manifest) (*Manifest, error) {
	var err error
	pause := storeBackoff
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return nil, err
		}
		if attempt > 1 {
			s.storeRetries.Add(1)
			s.logf("job %s: retrying cache store (attempt %d/%d)", shortKey(key), attempt, storeAttempts)
		}
		var out *Manifest
		if out, err = s.cache.store(key, stageDir, m); err == nil || attempt == storeAttempts {
			return out, err
		}
		t := time.NewTimer(pause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, err
		}
		pause *= 2
	}
}

// setDegraded flips the degraded latch, logging only transitions.
func (s *Service) setDegraded(v bool) {
	if s.degraded.Swap(v) != v {
		if v {
			s.logf("service: entering degraded mode (cache store failing; serving cache-bypass)")
		} else {
			s.logf("service: degraded mode cleared (cache store succeeded)")
		}
	}
}

// Degraded reports whether the service is in degraded cache-bypass
// mode (readiness, not liveness: it still serves).
func (s *Service) Degraded() bool { return s.degraded.Load() }

// change is what a transition writes beside the status.
type change struct {
	manifest  *Manifest // to done
	fromCache bool      // to done: completed straight from the disk cache
	bypassDir string    // to done: the stage directory served cache-bypass
	// err is why a job failed, or, for a bypass, why the store failed.
	err error
}

// moves lists where a job may go from each status. A job is born queued
// (newJob); a disk-cache hit is done at once. Nothing leaves done or
// failed, so done closes exactly once.
var moves = map[JobStatus][]JobStatus{
	StatusQueued:  {StatusRunning, StatusDone},
	StatusRunning: {StatusDone, StatusFailed},
}

// transition moves j to status to and is the only code that changes a
// job's state: it writes the status, the times and what c carries,
// counts the move, closes j.done on a terminal move and logs it. A move
// missing from moves is refused and logged, and changes nothing. The
// counters move before done closes, so a waiter woken by it reads them;
// the log line comes last, so a panicking Config.Logf cannot undo or
// interrupt the move it reports.
func (s *Service) transition(j *Job, to JobStatus, c change) {
	key := shortKey(j.id)
	now := time.Now()
	j.mu.Lock()
	from := j.status
	if !slices.Contains(moves[from], to) {
		j.mu.Unlock()
		s.logf("job %s: refused move %s -> %s (%v)", key, from, to, c.err)
		return
	}
	j.status = to
	switch to {
	case StatusRunning:
		j.started = now
	case StatusDone:
		j.finished, j.manifest, j.cacheHit, j.bypassDir = now, c.manifest, c.fromCache, c.bypassDir
	case StatusFailed:
		j.finished, j.errMsg = now, c.err.Error()
	}
	j.mu.Unlock()

	var pe *par.PanicError
	panicked := to == StatusFailed && errors.As(c.err, &pe)
	switch {
	case to == StatusRunning:
		s.generations.Add(1)
	case c.fromCache:
		s.cacheHits.Add(1)
	case c.bypassDir != "":
		s.bypasses.Add(1)
	case panicked:
		s.panics.Add(1)
	}
	if to.terminal() {
		close(j.done)
	}

	switch {
	case to == StatusRunning:
		s.logf("job %s running", key)
	case c.fromCache: // a hit does no work; nothing to report
	case c.bypassDir != "":
		s.logf("job %s done DEGRADED: cache store failed (%v); serving cache-bypass from stage", key, c.err)
	case to == StatusDone:
		s.logf("job %s done: %d nodes, %d edges, %d files", key, c.manifest.Nodes, c.manifest.Edges, len(c.manifest.Files))
	default:
		if panicked {
			s.logf("job %s panicked (recovered): %v", key, pe.Value)
		}
		s.logf("job %s failed: %v", key, c.err)
	}
}

// checkDeclaredLimits enforces MaxNodes/MaxEdges at admission — cheap
// rejection before any work. The sizes come from core.EstimatedSizes,
// which resolves inferred counts from generator parameters (RMAT's edge
// factor, a 1→* edge's mean out-degree sizing its head type, …), so a
// schema declaring 600 nodes but implying millions of edges is turned
// away at submit. The estimate is a lower bound; the check of the
// generated dataset in executeJob stays the authoritative one. Every
// caller passes a validated schema, so the estimate failing is a
// server fault.
func (s *Service) checkDeclaredLimits(sch *schema.Schema) error {
	if s.cfg.MaxNodes <= 0 && s.cfg.MaxEdges <= 0 {
		return nil
	}
	nodes, edges, err := core.EstimatedSizes(sch)
	if err != nil {
		return &internalError{err}
	}
	return s.checkLimits("schema implies ~", nodes, edges)
}

// checkLimits enforces MaxNodes/MaxEdges on a size that what describes.
func (s *Service) checkLimits(what string, nodes, edges int64) error {
	if s.cfg.MaxNodes > 0 && nodes > s.cfg.MaxNodes {
		return &LimitError{fmt.Sprintf("service: %s%d nodes, limit is %d", what, nodes, s.cfg.MaxNodes)}
	}
	if s.cfg.MaxEdges > 0 && edges > s.cfg.MaxEdges {
		return &LimitError{fmt.Sprintf("service: %s%d edges, limit is %d", what, edges, s.cfg.MaxEdges)}
	}
	return nil
}

// Drain stops accepting submissions, wakes ?wait long-polls, lets
// queued and running jobs finish, and returns when the pool is idle or
// ctx expires. Safe to call concurrently with an http.Server.Shutdown
// — in fact it should start first, so pollers release their
// connections and Shutdown isn't stuck behind them.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		close(s.queue)
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	//lint:allow nakedgo waiter is only wg.Wait plus a channel close; neither can panic, and par.Safe would add nothing to recover
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		// ctx may have been expired on entry while the pool is already
		// idle (both cases ready makes the select nondeterministic);
		// an idle pool is a clean drain regardless.
		select {
		case <-idle:
			return nil
		default:
		}
		return fmt.Errorf("service: drain interrupted with %d jobs in flight: %w", s.inFlight.Load(), ctx.Err())
	}
}

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	JobWorkers    int     `json:"job_workers"`
	InFlight      int64   `json:"in_flight"`
	Draining      bool    `json:"draining"`
	// Degraded: cache stores are failing and completed jobs are being
	// served cache-bypass; /v1/readyz mirrors this as 503.
	Degraded bool `json:"degraded"`
	Jobs     struct {
		Queued  int   `json:"queued"`
		Running int   `json:"running"`
		Done    int   `json:"done"`
		Failed  int   `json:"failed"`
		Evicted int64 `json:"evicted"`
		// Panics counts worker panics recovered into failed jobs.
		Panics int64 `json:"panics"`
	} `json:"jobs"`
	Cache struct {
		Entries  int     `json:"entries"`
		Bytes    int64   `json:"bytes"`
		MaxBytes int64   `json:"max_bytes,omitempty"`
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRate  float64 `json:"hit_rate"`
		// Evictions counts integrity evictions (corrupt entries removed
		// on lookup); LRUEvictions counts entries evicted to keep the
		// cache under CacheMaxBytes.
		Evictions    int64 `json:"evictions"`
		LRUEvictions int64 `json:"lru_evictions"`
		// Quarantined counts debris directories (orphaned temps, torn
		// entries) the startup recovery sweep moved aside.
		Quarantined int64 `json:"quarantined"`
		// CleanupFailures counts directory removals that failed (and
		// were logged) instead of being silently dropped.
		CleanupFailures int64 `json:"cleanup_failures"`
		// StoreRetries counts cache-store attempts beyond each first
		// try; Bypasses counts jobs completed in degraded cache-bypass
		// mode after retries were exhausted.
		StoreRetries int64 `json:"store_retries"`
		Bypasses     int64 `json:"bypasses"`
	} `json:"cache"`
	SingleflightDedups int64 `json:"singleflight_dedups"`
	Generations        int64 `json:"generations"`
	// Scenarios reports the named-scenario surface (registry contents,
	// submit-by-name traffic, sweep expansion). All zero with Enabled
	// false when the service runs without a scenario directory.
	Scenarios struct {
		Enabled  bool `json:"enabled"`
		Count    int  `json:"count"`
		Versions int  `json:"versions"`
		// Puts counts committed new versions (idempotent re-puts of the
		// latest text are not version churn and not counted).
		Puts    int64 `json:"puts"`
		Deletes int64 `json:"deletes"`
		// Quarantined counts torn registry entries the startup sweep
		// moved aside.
		Quarantined int64 `json:"quarantined"`
		// NamedSubmits / AnonymousSubmits split submissions by whether
		// they arrived as a scenario ref or as schema text. Sweep points
		// count as named submissions and additionally in SweepPoints.
		NamedSubmits     int64 `json:"named_submits"`
		AnonymousSubmits int64 `json:"anonymous_submits"`
		Sweeps           int64 `json:"sweeps"`
		SweepPoints      int64 `json:"sweep_points"`
		ActiveSweeps     int   `json:"active_sweeps"`
	} `json:"scenarios"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	var st Stats
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.QueueCapacity = s.cfg.queueDepth()
	st.JobWorkers = s.cfg.jobWorkers()
	st.InFlight = s.inFlight.Load()

	s.mu.Lock()
	st.QueueDepth = len(s.queue)
	st.Draining = s.draining
	for _, j := range s.jobs {
		switch j.state().status {
		case StatusQueued:
			st.Jobs.Queued++
		case StatusRunning:
			st.Jobs.Running++
		case StatusDone:
			st.Jobs.Done++
		case StatusFailed:
			st.Jobs.Failed++
		}
	}
	s.mu.Unlock()

	st.Cache.Entries, st.Cache.Bytes = s.cache.stats()
	st.Cache.MaxBytes = s.cfg.CacheMaxBytes
	st.Cache.LRUEvictions = s.cache.lruEvictions()
	st.Cache.Hits = s.cacheHits.Load()
	st.Cache.Misses = s.cacheMisses.Load()
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	st.Jobs.Evicted = s.jobEvictions.Load()
	st.Jobs.Panics = s.panics.Load()
	st.Cache.Evictions = s.evictions.Load()
	st.Cache.Quarantined, st.Cache.CleanupFailures = s.cache.dir.Quarantined(), s.cache.dir.CleanupFailures()
	st.Cache.StoreRetries = s.storeRetries.Load()
	st.Cache.Bypasses = s.bypasses.Load()
	st.Degraded = s.degraded.Load()
	st.SingleflightDedups = s.dedupHits.Load()
	st.Generations = s.generations.Load()
	if s.scen != nil {
		st.Scenarios.Enabled = true
		st.Scenarios.Count, st.Scenarios.Versions = s.scen.Counts()
		st.Scenarios.Quarantined = s.scen.Quarantined()
	}
	st.Scenarios.Puts = s.scenarioPuts.Load()
	st.Scenarios.Deletes = s.scenarioDels.Load()
	st.Scenarios.NamedSubmits = s.namedSubmits.Load()
	st.Scenarios.AnonymousSubmits = s.anonSubmits.Load()
	st.Scenarios.Sweeps = s.sweepSubmits.Load()
	st.Scenarios.SweepPoints = s.sweepPoints.Load()
	s.sweepMu.Lock()
	st.Scenarios.ActiveSweeps = len(s.sweeps)
	s.sweepMu.Unlock()
	return st
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// shortKey abbreviates a cache key for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
