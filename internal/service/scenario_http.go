package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"datasynth/internal/dsl"
	"datasynth/internal/scenario"
)

// HTTP handlers for the scenario registry and sweep surface. When the
// daemon runs without -scenariodir every endpoint here answers 404
// with a pointer at the flag, so a misconfigured client gets told why
// the surface is missing instead of a bare not-found.

// scenarioPutRequest is the PUT /v1/scenarios/{name} body.
type scenarioPutRequest struct {
	Schema      string            `json:"schema"`
	Description string            `json:"description,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
}

// writeSubmitErr maps a submission-path error onto its status code.
// Shared by anonymous submits, named submits and sweep expansion so
// the three surfaces cannot drift apart in how they classify faults.
func (s *Service) writeSubmitErr(w http.ResponseWriter, err error) {
	var le *LimitError
	var ie *internalError
	var ve *scenario.ValidationError
	var oe *dsl.OverrideError
	var bp *BadParamsError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrScenariosDisabled), errors.Is(err, scenario.ErrNotFound):
		s.writeErr(w, http.StatusNotFound, err)
	case errors.As(err, &le), errors.As(err, &ve), errors.As(err, &oe), errors.As(err, &bp):
		// The recipe is well-formed transport-wise but semantically
		// unprocessable: declared limits, invalid DSL, or a rejected
		// override/grid.
		s.writeErr(w, http.StatusUnprocessableEntity, err)
	case errors.As(err, &ie):
		// Cache or registry I/O fault — the server's problem, not the
		// request's.
		s.writeErr(w, http.StatusInternalServerError, err)
	default:
		// Parse or validation failure.
		s.writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	if s.scen == nil {
		s.writeErr(w, http.StatusNotFound, ErrScenariosDisabled)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.scen.List()})
}

func (s *Service) handleScenarioPut(w http.ResponseWriter, r *http.Request) {
	if s.scen == nil {
		s.writeErr(w, http.StatusNotFound, ErrScenariosDisabled)
		return
	}
	body, ok := s.readBody(w, r, "scenario")
	if !ok {
		return
	}
	req := scenarioPutRequest{Schema: string(body)}
	if isJSONContentType(r.Header.Get("Content-Type")) {
		req = scenarioPutRequest{}
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
	}
	v, created, err := s.PutScenario(r.PathValue("name"), req.Schema, req.Description, req.Labels)
	if err != nil {
		var ve *scenario.ValidationError
		switch {
		case errors.As(err, &ve):
			// Validation-first: nothing was written.
			s.writeErr(w, http.StatusUnprocessableEntity, err)
		case errors.Is(err, ErrScenariosDisabled):
			s.writeErr(w, http.StatusNotFound, err)
		default:
			s.writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	code := http.StatusCreated
	if !created {
		// Idempotent re-PUT of the latest version's canonical text.
		code = http.StatusOK
	}
	s.writeJSON(w, code, v)
}

func (s *Service) handleScenarioGet(w http.ResponseWriter, r *http.Request) {
	if s.scen == nil {
		s.writeErr(w, http.StatusNotFound, ErrScenariosDisabled)
		return
	}
	name := r.PathValue("name")
	if verStr := r.URL.Query().Get("version"); verStr != "" {
		version := 0
		if verStr != "latest" {
			v, err := strconv.Atoi(verStr)
			if err != nil || v <= 0 {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("version must be a positive integer or \"latest\", got %q", verStr))
				return
			}
			version = v
		}
		v, err := s.scen.Get(name, version)
		if err != nil {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		s.writeJSON(w, http.StatusOK, v)
		return
	}
	versions, err := s.scen.Versions(name)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	// The bare GET is a catalogue view: full records minus the DSL
	// text, which clients fetch per-version.
	type versionMeta struct {
		Version      int               `json:"version"`
		CanonicalSHA string            `json:"canonical_sha256"`
		Created      any               `json:"created"`
		Description  string            `json:"description,omitempty"`
		Labels       map[string]string `json:"labels,omitempty"`
	}
	metas := make([]versionMeta, len(versions))
	for i, v := range versions {
		metas[i] = versionMeta{
			Version:      v.Version,
			CanonicalSHA: v.CanonicalSHA,
			Created:      v.Created,
			Description:  v.Description,
			Labels:       v.Labels,
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"name": name, "versions": metas})
}

func (s *Service) handleScenarioDelete(w http.ResponseWriter, r *http.Request) {
	if s.scen == nil {
		s.writeErr(w, http.StatusNotFound, ErrScenariosDisabled)
		return
	}
	n, err := s.DeleteScenario(r.PathValue("name"))
	if err != nil {
		if errors.Is(err, scenario.ErrNotFound) {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("name"), "versions": n})
}

func (s *Service) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.scen == nil {
		s.writeErr(w, http.StatusNotFound, ErrScenariosDisabled)
		return
	}
	body, ok := s.readBody(w, r, "sweep")
	if !ok {
		return
	}
	var req SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
		return
	}
	if req.Scenario == "" {
		s.writeErr(w, http.StatusBadRequest, errors.New(`sweep needs a "scenario" ref`))
		return
	}
	view, err := s.SubmitSweep(req)
	if err != nil {
		s.writeSubmitErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	view, err := s.SweepStatus(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}
