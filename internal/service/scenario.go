package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/scenario"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// Named submissions and server-side sweeps. A scenario ref
// ("name" or "name@version") resolves against the registry to the
// version's canonical DSL text; optional flat parameter overrides
// (dsl.Override's whitelist) are applied to a fresh parse of that
// text and the result is re-validated and re-canonicalised. The
// resolved schema then rides the exact same submission tail as an
// anonymous schema body — same admission limits, same bounded queue,
// same content-hash cache key, same singleflight group — so naming is
// purely a resolution layer: it can never make the cache serve bytes
// an anonymous submit of the resolved text would not.
//
// Jobs record the resolved schema and hash, never the scenario name,
// which is what makes DELETE /v1/scenarios safe: deleting a name
// orphans no cache entries and aborts no in-flight jobs or sweeps.

// ErrScenariosDisabled: the service was started without -scenariodir.
var ErrScenariosDisabled = errors.New("service: scenario registry disabled (start datasynthd with -scenariodir)")

// ErrSweepUnknown reports an unknown sweep id.
var ErrSweepUnknown = errors.New("service: unknown sweep")

// BadParamsError reports scenario parameters or a sweep grid the
// whitelist or validation pipeline rejected (422).
type BadParamsError struct{ err error }

func (e *BadParamsError) Error() string { return e.err.Error() }
func (e *BadParamsError) Unwrap() error { return e.err }

// maxSweeps bounds the in-memory sweep map. Past the bound, sweeps
// whose points have all settled (no live queued/running job) are
// evicted first, oldest-first, falling back to the globally oldest
// only when every record still has in-flight points. Eviction drops
// bookkeeping only — jobs and cache entries are untouched, and a
// re-POST of the same grid rebuilds the record and collapses onto the
// cached points.
const maxSweeps = 256

// maxSweepPoints caps how many jobs a single POST /v1/sweeps may expand
// into. expandAxis applies it before anything is allocated.
const maxSweepPoints = 256

// PutScenario registers a new scenario version (validation-first; an
// invalid schema writes nothing).
func (s *Service) PutScenario(name, src, description string, labels map[string]string) (*scenario.Version, bool, error) {
	if s.scen == nil {
		return nil, false, ErrScenariosDisabled
	}
	v, created, err := s.scen.Put(name, src, description, labels)
	if err != nil {
		return nil, false, err
	}
	if created {
		s.scenarioPuts.Add(1)
	}
	return v, created, nil
}

// DeleteScenario unregisters a name. Cached datasets and jobs that
// were submitted through it are unaffected: they are keyed by resolved
// content hash, not by name.
func (s *Service) DeleteScenario(name string) (int, error) {
	if s.scen == nil {
		return 0, ErrScenariosDisabled
	}
	n, err := s.scen.Delete(name)
	if err == nil {
		s.scenarioDels.Add(1)
	}
	return n, err
}

// parseScenarioRef splits "name", "name@latest" or "name@<version>".
func parseScenarioRef(ref string) (name string, version int, err error) {
	name, verStr, hasVer := strings.Cut(ref, "@")
	if name == "" {
		return "", 0, &BadParamsError{fmt.Errorf("empty scenario name in ref %q", ref)}
	}
	if !hasVer || verStr == "latest" {
		return name, 0, nil
	}
	v, err := strconv.Atoi(strings.TrimPrefix(verStr, "v"))
	if err != nil || v <= 0 {
		return "", 0, &BadParamsError{fmt.Errorf("scenario ref %q: version must be a positive integer or \"latest\"", ref)}
	}
	return name, v, nil
}

// resolveScenario turns (ref, params) into a validated schema plus the
// resolved "name@v<N>" it came from. The registry invariant guarantees
// the stored text parses; overrides re-run the full validation
// pipeline because they can change the count-inference graph.
func (s *Service) resolveScenario(ref string, params map[string]string) (*schema.Schema, string, error) {
	if s.scen == nil {
		return nil, "", ErrScenariosDisabled
	}
	name, version, err := parseScenarioRef(ref)
	if err != nil {
		return nil, "", err
	}
	v, err := s.scen.Get(name, version)
	if err != nil {
		return nil, "", err
	}
	sch, err := dsl.Parse(v.DSL)
	if err != nil {
		return nil, "", &internalError{fmt.Errorf("registry entry %s@v%d failed to parse: %w", v.Name, v.Version, err)}
	}
	if len(params) > 0 {
		if err := dsl.Override(sch, params); err != nil {
			return nil, "", &BadParamsError{err}
		}
		if err := sch.Validate(); err != nil {
			return nil, "", &BadParamsError{err}
		}
		if err := core.ValidateSchema(sch); err != nil {
			return nil, "", &BadParamsError{err}
		}
	}
	return sch, fmt.Sprintf("%s@v%d", v.Name, v.Version), nil
}

// SubmitScenario resolves a scenario ref with optional overrides and
// submits the resolved schema through the normal admission path.
// resolved reports the pinned "name@v<N>" the ref landed on.
func (s *Service) SubmitScenario(ref string, params map[string]string, format table.Format) (res SubmitResult, resolved string, err error) {
	s.submits.Add(1)
	sch, resolved, err := s.resolveScenario(ref, params)
	if err != nil {
		return SubmitResult{}, "", err
	}
	s.namedSubmits.Add(1)
	res, err = s.submitSchema(sch, format)
	return res, resolved, err
}

// SweepRequest is a decoded POST /v1/sweeps body: one scenario ref, a
// set of fixed parameter overrides, and a grid of swept axes. Each
// axis is either an explicit value list or a {from,to,step} range; the
// expanded grid is the cross product of all axes.
type SweepRequest struct {
	Scenario string                     `json:"scenario"`
	Params   map[string]string          `json:"params,omitempty"`
	Sweep    map[string]json.RawMessage `json:"sweep"`
	Format   string                     `json:"format,omitempty"`
}

// sweepRange is the {from,to,step} axis form.
type sweepRange struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// sweepPoint is one expanded grid point of a sweep.
type sweepPoint struct {
	params map[string]string // full override set (fixed + axis values)
	key    string            // job id / cache key of the resolved schema
}

// Sweep aggregates one expanded parameter grid. It holds only point
// params and cache keys — job state is looked up live, and nothing
// references the scenario name after expansion.
type Sweep struct {
	id       string
	scenario string // resolved name@v<N>
	format   table.Format
	created  time.Time
	points   []sweepPoint
}

// SweepPointView is one point in a sweep status response.
type SweepPointView struct {
	Params map[string]string `json:"params"`
	// Job is the point's job id — the pure content hash of its resolved
	// schema plus format, so it doubles as the cache key.
	Job    string `json:"job"`
	Status string `json:"status"`
}

// SweepView is the GET /v1/sweeps/{id} payload.
type SweepView struct {
	ID       string           `json:"id"`
	Scenario string           `json:"scenario"`
	Format   string           `json:"format"`
	Created  time.Time        `json:"created"`
	Points   []SweepPointView `json:"points"`
	Counts   map[string]int   `json:"counts"`
	// Done: every point's dataset is generated and downloadable.
	Done bool `json:"done"`
}

// expandAxis turns one sweep axis into its ordered value strings.
// Numeric values are normalised through formatSweepValue so that a
// grid point and a hand-written override of the same number spell —
// and therefore hash — identically. maxSweepPoints bounds the axis
// length *before* anything is allocated: an axis that alone exceeds the sweep
// cap necessarily makes the whole grid exceed it, and rejecting it
// here keeps a tiny {from:0,to:1e9,step:1} request from materialising
// a multi-GB slice (or overflowing the float→int length conversion)
// inside the handler.
func expandAxis(name string, raw json.RawMessage) ([]string, error) {
	axisTooBig := func() error {
		return &BadParamsError{fmt.Errorf("sweep axis %q alone expands to more than %d points", name, maxSweepPoints)}
	}
	var list []any
	if err := json.Unmarshal(raw, &list); err == nil {
		if len(list) == 0 {
			return nil, &BadParamsError{fmt.Errorf("sweep axis %q: empty value list", name)}
		}
		if len(list) > maxSweepPoints {
			return nil, axisTooBig()
		}
		vals := make([]string, len(list))
		for i, v := range list {
			switch v := v.(type) {
			case string:
				vals[i] = v
			case float64:
				vals[i] = formatSweepValue(v)
			default:
				return nil, &BadParamsError{fmt.Errorf("sweep axis %q: values must be numbers or strings", name)}
			}
		}
		return vals, nil
	}
	var rng sweepRange
	if err := json.Unmarshal(raw, &rng); err != nil {
		return nil, &BadParamsError{fmt.Errorf("sweep axis %q: want a value array or {from,to,step}", name)}
	}
	if rng.Step <= 0 || rng.To < rng.From {
		return nil, &BadParamsError{fmt.Errorf("sweep axis %q: need step > 0 and to >= from", name)}
	}
	// Checked before converting to int or allocating: span can be huge
	// or non-finite for extreme from/to/step combinations.
	span := math.Floor((rng.To-rng.From)/rng.Step + 1e-9)
	if math.IsNaN(span) || span >= maxSweepPoints {
		return nil, axisTooBig()
	}
	n := int(span) + 1
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, formatSweepValue(rng.From+float64(i)*rng.Step))
	}
	return vals, nil
}

// formatSweepValue renders a grid number canonically: rounded to 9
// decimals to absorb binary-float drift in range expansion (0.05+5×
// 0.05 must print "0.3", not "0.30000000000000004"), then shortest
// round-trip formatting. Integral values print without an exponent
// ("1000000", never "1e+06") — count overrides go through ParseInt,
// and the grid value must spell identically to a hand-written
// override of the same number or the normalisation contract (equal
// spelling ⇒ equal hash) breaks.
func formatSweepValue(v float64) string {
	v = math.Round(v*1e9) / 1e9
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// expandSweep resolves and validates every point of a sweep before
// anything is submitted (validation-first: a bad grid rejects the
// whole request with no side effects). Points come back in
// deterministic order: axes sorted by name, each axis in declared
// value order, last axis fastest.
func (s *Service) expandSweep(req SweepRequest, format table.Format) (resolved string, points []sweepPoint, schemas []*schema.Schema, err error) {
	if len(req.Sweep) == 0 {
		return "", nil, nil, &BadParamsError{errors.New("sweep: no axes given")}
	}
	axes := make([]string, 0, len(req.Sweep))
	for name := range req.Sweep {
		axes = append(axes, name)
	}
	sort.Strings(axes)
	values := make([][]string, len(axes))
	total := 1
	for i, name := range axes {
		if _, fixed := req.Params[name]; fixed {
			return "", nil, nil, &BadParamsError{fmt.Errorf("sweep axis %q also appears in fixed params", name)}
		}
		vals, err := expandAxis(name, req.Sweep[name])
		if err != nil {
			return "", nil, nil, err
		}
		values[i] = vals
		total *= len(vals)
		if total > maxSweepPoints {
			return "", nil, nil, &BadParamsError{fmt.Errorf("sweep expands to more than %d points", maxSweepPoints)}
		}
	}
	// Cross product, odometer-style: last axis increments fastest.
	idx := make([]int, len(axes))
	for {
		params := make(map[string]string, len(req.Params)+len(axes))
		for k, v := range req.Params {
			params[k] = v
		}
		for i, name := range axes {
			params[name] = values[i][idx[i]]
		}
		sch, ref, err := s.resolveScenario(req.Scenario, params)
		if err != nil {
			return "", nil, nil, fmt.Errorf("point %v: %w", params, err)
		}
		if err := s.checkDeclaredLimits(sch); err != nil {
			return "", nil, nil, fmt.Errorf("point %v: %w", params, err)
		}
		resolved = ref
		points = append(points, sweepPoint{params: params, key: CacheKey(sch, format)})
		schemas = append(schemas, sch)
		pos := len(idx) - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < len(values[pos]) {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			return resolved, points, schemas, nil
		}
	}
}

// sweepID derives a deterministic id from the point keys and format,
// so re-POSTing an identical grid addresses the same sweep instead of
// growing the map — sweep submission is idempotent the same way job
// submission is.
func sweepID(format table.Format, points []sweepPoint) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep-%s\n", format)
	for _, p := range points {
		fmt.Fprintln(h, p.key)
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:24]
}

// SubmitSweep expands a parameter grid into one job per point and
// submits every point through the normal bounded-queue path. All
// points are resolved and validated before the first submission; a
// full queue mid-expansion fails the request (503) — already-enqueued
// points keep running as ordinary jobs and collapse by singleflight
// when the client retries.
func (s *Service) SubmitSweep(req SweepRequest) (*SweepView, error) {
	format := table.FormatCSV
	if req.Format != "" {
		f, err := table.ParseFormat(req.Format)
		if err != nil {
			return nil, &BadParamsError{err}
		}
		format = f
	}
	resolved, points, schemas, err := s.expandSweep(req, format)
	if err != nil {
		return nil, err
	}
	for i := range points {
		s.submits.Add(1)
		s.namedSubmits.Add(1)
		s.sweepPoints.Add(1)
		if _, err := s.submitSchema(schemas[i], format); err != nil {
			return nil, fmt.Errorf("sweep point %v: %w", points[i].params, err)
		}
	}
	s.sweepSubmits.Add(1)
	id := sweepID(format, points)
	s.sweepMu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		sw = &Sweep{id: id, scenario: resolved, format: format, created: time.Now(), points: points}
		s.sweeps[id] = sw
		s.pruneSweepsLocked()
	}
	s.sweepMu.Unlock()
	return s.sweepView(sw), nil
}

// pruneSweepsLocked evicts sweep records past the bound: settled
// sweeps (no point with a live queued/running job) go first,
// oldest-first, so an in-flight sweep's status endpoint keeps working
// under churn; only when every record is still in flight does the
// globally oldest go. Only bookkeeping goes either way: the points'
// jobs and cache entries live their own lives. Caller holds sweepMu
// (lock order is sweepMu → s.mu, matching Stats; sweepSettled takes
// s.mu per point via s.Job).
func (s *Service) pruneSweepsLocked() {
	for len(s.sweeps) > maxSweeps {
		victimID := ""
		var victimAt time.Time
		victimSettled := false
		ids := make([]string, 0, len(s.sweeps))
		for id := range s.sweeps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			sw := s.sweeps[id]
			settled := s.sweepSettled(sw)
			better := victimID == "" ||
				(settled && !victimSettled) ||
				(settled == victimSettled && sw.created.Before(victimAt))
			if better {
				victimID, victimAt, victimSettled = id, sw.created, settled
			}
		}
		delete(s.sweeps, victimID)
	}
}

// sweepSettled reports whether no point of sw still has a live job in
// a non-terminal state — i.e. evicting the sweep record cannot hide
// in-flight work. Points whose job records were GC'd count as settled
// (their datasets are cached or evicted; either way nothing is
// running).
func (s *Service) sweepSettled(sw *Sweep) bool {
	for _, p := range sw.points {
		if j := s.Job(p.key); j != nil {
			j.mu.Lock()
			terminal := j.status == StatusDone || j.status == StatusFailed
			j.mu.Unlock()
			if !terminal {
				return false
			}
		}
	}
	return true
}

// SweepStatus returns the aggregated view of a sweep.
func (s *Service) SweepStatus(id string) (*SweepView, error) {
	s.sweepMu.Lock()
	sw := s.sweeps[id]
	s.sweepMu.Unlock()
	if sw == nil {
		return nil, ErrSweepUnknown
	}
	return s.sweepView(sw), nil
}

// sweepView snapshots per-point job states. A point whose job record
// was GC'd reports "done" while its dataset is still cached, and
// "evicted" once both are gone (re-POST the sweep to regenerate —
// byte-identically, per the determinism contract).
func (s *Service) sweepView(sw *Sweep) *SweepView {
	v := &SweepView{
		ID:       sw.id,
		Scenario: sw.scenario,
		Format:   sw.format.String(),
		Created:  sw.created,
		Points:   make([]SweepPointView, len(sw.points)),
		Counts:   map[string]int{},
	}
	done := 0
	for i, p := range sw.points {
		status := "evicted"
		if j := s.Job(p.key); j != nil {
			status = string(j.View().Status)
		} else if s.cache.has(p.key) {
			status = string(StatusDone)
		}
		if status == string(StatusDone) {
			done++
		}
		v.Points[i] = SweepPointView{Params: p.params, Job: p.key, Status: status}
		v.Counts[status]++
	}
	v.Done = done == len(sw.points)
	return v
}
