package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datasynth/internal/faultfs"
	"datasynth/internal/table"
)

// HTTP surface of the service:
//
//	POST /v1/jobs                       submit a schema; returns the job (id = cache key)
//	GET  /v1/jobs/{id}                  job status + timing report (?wait=30s blocks)
//	GET  /v1/jobs/{id}/tables/{table}   stream one exported table file
//	GET  /v1/healthz                    liveness
//	GET  /v1/readyz                     readiness (503 while degraded or draining)
//	GET  /v1/stats                      queue depth, cache hit rate, in-flight engines
//	GET  /v1/metrics                    Prometheus text-format telemetry
//	GET  /v1/scenarios                  list registered scenarios
//	PUT  /v1/scenarios/{name}           append an immutable new version (validation-first)
//	GET  /v1/scenarios/{name}           version list, or one version (?version=N|latest)
//	DELETE /v1/scenarios/{name}         unregister a name (cached datasets unaffected)
//	POST /v1/sweeps                     expand a scenario × parameter grid into jobs
//	GET  /v1/sweeps/{id}                aggregated per-point sweep status
//
// Submission bodies: raw DSL text (any non-JSON content type; the
// format comes from the ?format= query parameter), or a JSON object
// {"schema": "...", "format": "csv|jsonl|columnar"} — or, with a
// populated registry, {"scenario": "name@version", "params": {...}}.
// Table files
// stream verbatim from the committed cache entry — no re-encoding —
// with the manifest's SHA-256 as a strong ETag, so clients can
// revalidate a download for free.

// maxSchemaBytes bounds a submitted schema body; DSL schemas are
// kilobytes, so anything near this is a mistake or abuse.
const maxSchemaBytes = 1 << 20

// maxWait bounds the ?wait= long poll on the job-status endpoint.
const maxWait = 5 * time.Minute

// submitRequest is the JSON submission body. Exactly one of Schema
// (anonymous DSL text) or Scenario (a registered "name" /
// "name@version" ref, with optional flat parameter overrides) names
// the recipe.
type submitRequest struct {
	Schema   string            `json:"schema,omitempty"`
	Scenario string            `json:"scenario,omitempty"`
	Params   map[string]string `json:"params,omitempty"`
	Format   string            `json:"format,omitempty"`
}

// submitResponse extends the job view with the submission outcome.
type submitResponse struct {
	JobView
	Deduped bool `json:"deduped,omitempty"`
	// Scenario is the pinned "name@v<N>" a named submit resolved to —
	// informational only; the job id is still the content hash.
	Scenario string `json:"scenario,omitempty"`
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/tables/{table}", s.handleTable)
	mux.HandleFunc("GET /v1/scenarios", s.scenarios(s.handleScenarioList))
	mux.HandleFunc("PUT /v1/scenarios/{name}", s.scenarios(s.handleScenarioPut))
	mux.HandleFunc("GET /v1/scenarios/{name}", s.scenarios(s.handleScenarioGet))
	mux.HandleFunc("DELETE /v1/scenarios/{name}", s.scenarios(s.handleScenarioDelete))
	mux.HandleFunc("POST /v1/sweeps", s.scenarios(s.handleSweepSubmit))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness, distinct from liveness: a daemon whose
// cache stores are failing keeps serving (healthz stays 200, jobs
// complete cache-bypass) but answers 503 here so an orchestrator can
// steer new traffic to a healthier replica.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.Degraded():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"reason": "cache store failing; completed jobs served cache-bypass",
		})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// readBody reads a request body of at most maxSchemaBytes; what names
// it in errors. On failure it has answered — 413 for an oversized body,
// 400 for any other read error — and returns false.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSchemaBytes))
	if err == nil {
		return body, true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, maxSchemaBytes))
	} else {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("reading %s body: %w", what, err))
	}
	return nil, false
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, "schema")
	if !ok {
		return
	}
	src := string(body)
	scenarioRef := ""
	var params map[string]string
	formatName := r.URL.Query().Get("format")
	if isJSONContentType(r.Header.Get("Content-Type")) {
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
		if req.Schema != "" && req.Scenario != "" {
			s.writeErr(w, http.StatusBadRequest, errors.New(`give "schema" or "scenario", not both`))
			return
		}
		src = req.Schema
		scenarioRef = req.Scenario
		params = req.Params
		if req.Format != "" {
			formatName = req.Format
		}
	}
	if scenarioRef == "" && strings.TrimSpace(src) == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New("empty schema"))
		return
	}
	if len(params) > 0 && scenarioRef == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New(`"params" overrides need a "scenario" ref`))
		return
	}
	if formatName == "" {
		formatName = "csv"
	}
	format, err := table.ParseFormat(formatName)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}

	var res SubmitResult
	var resolved string
	if scenarioRef != "" {
		res, resolved, err = s.SubmitScenario(scenarioRef, params, format)
	} else {
		res, err = s.Submit(src, format)
	}
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	code := http.StatusAccepted
	if res.CacheHit {
		code = http.StatusOK
	}
	sr := submitResponse{JobView: res.Job.View(), Deduped: res.Deduped, Scenario: resolved}
	// cache_hit in the submit response is submission-level: true
	// whenever this request was served without a new generation —
	// from the disk cache or from an already completed identical job.
	if res.CacheHit {
		sr.CacheHit = true
	}
	s.writeJSON(w, code, sr)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid wait duration: %w", err))
			return
		}
		if wait <= 0 {
			// A zero or negative wait would fall straight through the
			// select (or never fire), silently behaving like no wait at
			// all; reject it so clients learn their mistake.
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("wait must be positive, got %q", waitStr))
			return
		}
		if wait > maxWait {
			wait = maxWait
		}
		select {
		case <-j.Done():
		case <-time.After(wait):
		case <-s.drainCh:
			// Shutting down: answer with the current status so the
			// connection frees and the HTTP drain can complete.
		case <-r.Context().Done():
			return
		}
	}
	s.writeJSON(w, http.StatusOK, j.View())
}

func (s *Service) handleTable(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	m := j.Manifest()
	if m == nil {
		v := j.View()
		if v.Status == StatusFailed {
			s.writeErr(w, http.StatusConflict, fmt.Errorf("job failed: %s", v.Error))
			return
		}
		s.writeErr(w, http.StatusConflict, fmt.Errorf("job is %s; tables stream once it is done", v.Status))
		return
	}
	// Only manifest-listed names resolve, so a crafted path can never
	// escape the entry directory.
	mf := m.File(r.PathValue("table"))
	if mf == nil {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("no table file %q in this dataset", r.PathValue("table")))
		return
	}
	// A degraded job's files never made it into the cache; they stream
	// straight from the job's staging directory (cache-bypass), which
	// lives exactly as long as the job record. A cached file is opened
	// through the cache. Either way the open fd survives a removal of
	// its directory mid-stream, so neither path pins anything.
	dir := j.BypassDir()
	var f faultfs.File
	var err error
	if dir != "" {
		f, err = s.cache.dir.FS().Open(filepath.Join(dir, mf.Name))
	} else {
		f, err = s.cache.open(j.ID(), mf.Name)
	}
	switch {
	case err != nil && dir != "":
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("degraded dataset no longer available (%v); resubmit the schema to regenerate it", err))
		return
	case os.IsNotExist(err):
		// The entry was evicted by the size bound after the job
		// completed; the dataset regenerates deterministically, so
		// this is a cache miss to resubmit through, not a fault.
		s.writeErr(w, http.StatusNotFound, errors.New("dataset evicted from cache; resubmit the schema to regenerate it"))
		return
	case err != nil:
		s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("cache entry unreadable: %w", err))
		return
	}
	defer f.Close()
	if dir != "" {
		w.Header().Set("X-Datasynth-Degraded", "1")
	}
	format, _ := table.ParseFormat(m.Format)
	w.Header().Set("Content-Type", format.ContentType())
	w.Header().Set("ETag", `"`+mf.SHA256+`"`)
	w.Header().Set("X-Datasynth-Cache-Key", j.ID())
	http.ServeContent(w, r, mf.Name, m.Created, f)
}

// isJSONContentType reports whether a Content-Type header names the
// JSON media type proper. Parsing (rather than a prefix match) keeps
// parameterized forms like "application/json; charset=utf-8" routing
// as JSON while look-alikes like "application/jsonlines" stay raw DSL.
func isJSONContentType(ct string) bool {
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// writeJSON encodes a response body. The status line is already on the
// wire when encoding starts, so a mid-stream failure can't be turned
// into an error status — but it must not pass silently either
// (truncated JSON under a 200 status looks like a server bug): it is
// counted (response_write_failures_total) and logged.
func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.writeFailures.Add(1)
		s.logf("response write failed: %v", err)
	}
}

func (s *Service) writeErr(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}
