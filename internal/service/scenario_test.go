package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// scenDSL is a small schema whose lfr call spells mu explicitly, so
// both override and sweep tests can vary it. The seed is substituted
// per test.
const scenDSL = `
graph scen {
  seed = %d
  node Person {
    count = 200
    property country : string = categorical(dict="countries")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=4, maxDegree=10, mu=0.2)
  }
}
`

func scenSchema(seed int) string { return fmt.Sprintf(scenDSL, seed) }

func newScenarioServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, Config{ScenarioDir: t.TempDir()})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func doReq(t *testing.T, method, url, contentType string, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func putScenario(t *testing.T, ts *httptest.Server, name, src string) submitScenarioRecord {
	t.Helper()
	resp, raw := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/"+name, "text/plain", src)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT scenario %s: %d %s", name, resp.StatusCode, raw)
	}
	var rec submitScenarioRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// submitScenarioRecord mirrors the scenario.Version JSON the PUT and
// GET endpoints return.
type submitScenarioRecord struct {
	Name         string `json:"name"`
	Version      int    `json:"version"`
	DSL          string `json:"dsl"`
	CanonicalSHA string `json:"canonical_sha256"`
}

func TestScenarioHTTPSurface(t *testing.T) {
	svc, ts := newScenarioServer(t)

	// PUT with a raw DSL body mints v1; re-PUT is idempotent (200, same
	// version); a changed recipe appends v2.
	v1 := putScenario(t, ts, "panel", scenSchema(1))
	if v1.Version != 1 || v1.CanonicalSHA == "" || v1.DSL == "" {
		t.Fatalf("v1: %+v", v1)
	}
	resp, raw := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/panel", "text/plain", scenSchema(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-PUT: %d %s", resp.StatusCode, raw)
	}
	// PUT with a JSON body carries description and labels.
	body, _ := json.Marshal(map[string]any{
		"schema":      scenSchema(2),
		"description": "second recipe",
		"labels":      map[string]string{"fig": "3"},
	})
	resp, raw = doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/panel", "application/json", string(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT v2: %d %s", resp.StatusCode, raw)
	}
	var v2 submitScenarioRecord
	json.Unmarshal(raw, &v2)
	if v2.Version != 2 {
		t.Fatalf("v2: %+v", v2)
	}

	// GET /v1/scenarios lists; GET {name} lists versions without DSL
	// text; ?version= returns the full record.
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"panel"`)) {
		t.Fatalf("list: %d %s", resp.StatusCode, raw)
	}
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/panel", "", "")
	if resp.StatusCode != http.StatusOK || bytes.Contains(raw, []byte(`"dsl"`)) {
		t.Fatalf("version list should omit DSL text: %d %s", resp.StatusCode, raw)
	}
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/panel?version=1", "", "")
	var got submitScenarioRecord
	json.Unmarshal(raw, &got)
	if resp.StatusCode != http.StatusOK || got.CanonicalSHA != v1.CanonicalSHA || got.DSL != v1.DSL {
		t.Fatalf("GET v1: %d %+v", resp.StatusCode, got)
	}
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/panel?version=latest", "", "")
	json.Unmarshal(raw, &got)
	if resp.StatusCode != http.StatusOK || got.Version != 2 {
		t.Fatalf("GET latest: %d %+v", resp.StatusCode, got)
	}
	if resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/panel?version=9", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing version: %d", resp.StatusCode)
	}
	if resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/ghost", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing name: %d", resp.StatusCode)
	}

	// Invalid DSL: 422 and nothing written (validation-first).
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/broken", "text/plain", "graph nope {")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid DSL: %d", resp.StatusCode)
	}
	if _, err := os.Stat(svc.cfg.ScenarioDir + "/broken"); !os.IsNotExist(err) {
		t.Fatalf("rejected PUT left a trace: %v", err)
	}

	// DELETE unregisters; a second DELETE is 404.
	resp, raw = doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/panel", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"versions": 2`)) {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, raw)
	}
	if resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/panel", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: %d", resp.StatusCode)
	}

	st := svc.Stats()
	if !st.Scenarios.Enabled || st.Scenarios.Puts != 2 || st.Scenarios.Deletes != 1 {
		t.Fatalf("stats: %+v", st.Scenarios)
	}
}

func TestScenarioSurfaceDisabled(t *testing.T) {
	svc := newTestService(t, Config{}) // no ScenarioDir
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, probe := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/scenarios", ""},
		{http.MethodPut, "/v1/scenarios/x", scenSchema(1)},
		{http.MethodGet, "/v1/scenarios/x", ""},
		{http.MethodDelete, "/v1/scenarios/x", ""},
		{http.MethodPost, "/v1/sweeps", `{"scenario":"x","sweep":{"seed":[1]}}`},
	} {
		resp, raw := doReq(t, probe.method, ts.URL+probe.path, "text/plain", probe.body)
		if resp.StatusCode != http.StatusNotFound || !bytes.Contains(raw, []byte("scenariodir")) {
			t.Errorf("%s %s with registry off: %d %s", probe.method, probe.path, resp.StatusCode, raw)
		}
	}
	// Named job submission is equally unavailable.
	resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "application/json", `{"scenario":"x"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("named submit with registry off: %d %s", resp.StatusCode, raw)
	}
	if st := svc.Stats(); st.Scenarios.Enabled {
		t.Fatal("stats claim the registry is enabled")
	}
}

// submitJSON posts a JSON submission body and decodes the response.
func submitJSON(t *testing.T, ts *httptest.Server, body map[string]any) (int, submitResponse, []byte) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, out := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "application/json", string(raw))
	var sub submitResponse
	json.Unmarshal(out, &sub)
	return resp.StatusCode, sub, out
}

// downloadAll fetches every table of a done job: name -> sha256.
func downloadAll(t *testing.T, ts *httptest.Server, jobID string) map[string]string {
	t.Helper()
	resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"?wait=60s", "", "")
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || view.Status != StatusDone {
		t.Fatalf("job %s: %d %s (%s)", jobID, resp.StatusCode, view.Status, view.Error)
	}
	hashes := map[string]string{}
	for _, f := range view.Files {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/tables/"+f.Name, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("table %s: %d", f.Name, resp.StatusCode)
		}
		hashes[f.Name] = sha256Hex(body)
	}
	return hashes
}

// TestSubmitByNameByteIdentity is the acceptance-criteria core: for a
// registered scenario, submit-by-name — with and without overrides —
// produces downloads SHA-256-identical to an anonymous submit of the
// resolved canonical DSL, cold and warm, collapsing onto the same job
// id and cache entry.
func TestSubmitByNameByteIdentity(t *testing.T) {
	svc, ts := newScenarioServer(t)
	rec := putScenario(t, ts, "panel", scenSchema(42))

	// Without overrides: the named submit's job id must BE the content
	// hash of the registered canonical text, so anonymous and named
	// submissions of the same recipe are the same cache entry.
	code, named, out := submitJSON(t, ts, map[string]any{"scenario": "panel"})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("named submit: %d %s", code, out)
	}
	if named.Scenario != "panel@v1" {
		t.Fatalf("resolved ref %q, want panel@v1", named.Scenario)
	}
	if !strings.HasPrefix(named.ID, rec.CanonicalSHA) {
		t.Fatalf("named job id %s does not start with the registered hash %s", named.ID, rec.CanonicalSHA)
	}
	namedHashes := downloadAll(t, ts, named.ID)

	resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "text/plain", rec.DSL)
	var anon submitResponse
	json.Unmarshal(raw, &anon)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("anonymous submit: %d %s", resp.StatusCode, raw)
	}
	if anon.ID != named.ID {
		t.Fatalf("anonymous submit of resolved DSL keyed %s, named keyed %s", anon.ID, named.ID)
	}
	anonHashes := downloadAll(t, ts, anon.ID)
	if len(anonHashes) != len(namedHashes) {
		t.Fatalf("file sets differ: %v vs %v", anonHashes, namedHashes)
	}
	for name, h := range namedHashes {
		if anonHashes[name] != h {
			t.Errorf("table %s: named %s, anonymous %s", name, h, anonHashes[name])
		}
	}

	// With overrides: resolve by hand (parse canonical text, apply the
	// same override helper, re-canonicalise) and check the named submit
	// keys identically — cold, then warm.
	params := map[string]string{"knows.mu": "0.35", "seed": "7"}
	resolvedSchema, err := dsl.Parse(rec.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsl.Override(resolvedSchema, params); err != nil {
		t.Fatal(err)
	}
	resolvedText := core.CanonicalSchema(resolvedSchema)

	var overrideID string
	for _, pass := range []string{"cold", "warm"} {
		code, sub, out := submitJSON(t, ts, map[string]any{"scenario": "panel@v1", "params": params})
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("override submit (%s): %d %s", pass, code, out)
		}
		if pass == "warm" && sub.ID != overrideID {
			t.Fatalf("warm override submit keyed %s, cold keyed %s", sub.ID, overrideID)
		}
		overrideID = sub.ID
		got := downloadAll(t, ts, sub.ID)

		resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", "text/plain", resolvedText)
		var anonO submitResponse
		json.Unmarshal(raw, &anonO)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("anonymous resolved submit (%s): %d %s", pass, resp.StatusCode, raw)
		}
		if anonO.ID != sub.ID {
			t.Fatalf("(%s) anonymous resolved text keyed %s, named+params keyed %s", pass, anonO.ID, sub.ID)
		}
		want := downloadAll(t, ts, anonO.ID)
		for name, h := range want {
			if got[name] != h {
				t.Errorf("(%s) table %s: named+params %s, anonymous resolved %s", pass, name, got[name], h)
			}
		}
	}
	if overrideID == named.ID {
		t.Fatal("override produced the same cache key as the base recipe")
	}

	// The base recipe and the override are two schemas: two generations
	// total, everything else cache hits or dedups.
	if g := svc.Stats().Generations; g != 2 {
		t.Errorf("%d generations, want 2", g)
	}
	st := svc.Stats()
	if st.Scenarios.NamedSubmits != 3 || st.Scenarios.AnonymousSubmits != 3 {
		t.Errorf("submit counters: %+v", st.Scenarios)
	}

	// Bad refs and bad params are client errors, not server faults.
	if code, _, out := submitJSON(t, ts, map[string]any{"scenario": "ghost"}); code != http.StatusNotFound {
		t.Errorf("unknown scenario: %d %s", code, out)
	}
	if code, _, out := submitJSON(t, ts, map[string]any{"scenario": "panel@v9"}); code != http.StatusNotFound {
		t.Errorf("unknown version: %d %s", code, out)
	}
	if code, _, out := submitJSON(t, ts, map[string]any{"scenario": "panel", "params": map[string]string{"knows.gamma": "2"}}); code != http.StatusUnprocessableEntity {
		t.Errorf("bad override: %d %s", code, out)
	}
	if code, _, out := submitJSON(t, ts, map[string]any{"scenario": "panel", "schema": scenSchema(1)}); code != http.StatusBadRequest {
		t.Errorf("schema+scenario: %d %s", code, out)
	}
	if code, _, out := submitJSON(t, ts, map[string]any{"schema": scenSchema(1), "params": map[string]string{"seed": "1"}}); code != http.StatusBadRequest {
		t.Errorf("params without scenario: %d %s", code, out)
	}
}

// waitSweepDone polls the sweep status endpoint until Done.
func waitSweepDone(t *testing.T, ts *httptest.Server, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id, "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep %s: %d %s", id, resp.StatusCode, raw)
		}
		var view SweepView
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		if view.Done {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished: %s", id, raw)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSweepTenPointMu is the acceptance-criteria sweep: a 10-point mu
// grid creates exactly 10 cache entries, the status endpoint reports
// all points done, and each point is byte-identical to its individual
// submit-by-name.
func TestSweepTenPointMu(t *testing.T) {
	svc, ts := newScenarioServer(t)
	putScenario(t, ts, "panel", scenSchema(42))

	body := `{"scenario":"panel","sweep":{"knows.mu":{"from":0.05,"to":0.5,"step":0.05}}}`
	resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/sweeps", "application/json", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", resp.StatusCode, raw)
	}
	var sw SweepView
	if err := json.Unmarshal(raw, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 10 {
		t.Fatalf("expanded to %d points, want 10", len(sw.Points))
	}
	if sw.Scenario != "panel@v1" {
		t.Fatalf("sweep resolved %q", sw.Scenario)
	}
	seen := map[string]bool{}
	for _, p := range sw.Points {
		if seen[p.Job] {
			t.Fatalf("duplicate cache key %s in grid", p.Job)
		}
		seen[p.Job] = true
	}

	view := waitSweepDone(t, ts, sw.ID)
	if view.Counts[string(StatusDone)] != 10 {
		t.Fatalf("counts: %+v", view.Counts)
	}
	if st := svc.Stats(); st.Cache.Entries != 10 {
		t.Fatalf("%d cache entries after the sweep, want 10", st.Cache.Entries)
	}

	// Spot-check two points against their individual submit-by-name:
	// the job ids must coincide (same cache entry, hence same bytes).
	for _, mu := range []string{"0.05", "0.3"} {
		code, sub, out := submitJSON(t, ts, map[string]any{
			"scenario": "panel", "params": map[string]string{"knows.mu": mu},
		})
		if code != http.StatusOK {
			t.Fatalf("individual mu=%s submit after sweep: %d %s (want a cache hit)", mu, code, out)
		}
		if !seen[sub.ID] {
			t.Fatalf("individual mu=%s submit keyed %s, not a sweep point", mu, sub.ID)
		}
		downloadAll(t, ts, sub.ID)
	}

	// Re-POSTing the identical grid is idempotent: same sweep id, no
	// new generations (all 10 points cache-hit).
	gens := svc.Stats().Generations
	resp, raw = doReq(t, http.MethodPost, ts.URL+"/v1/sweeps", "application/json", body)
	var sw2 SweepView
	json.Unmarshal(raw, &sw2)
	if resp.StatusCode != http.StatusAccepted || sw2.ID != sw.ID {
		t.Fatalf("re-POST: %d id %s (first %s)", resp.StatusCode, sw2.ID, sw.ID)
	}
	if g := svc.Stats().Generations; g != gens {
		t.Fatalf("re-POST regenerated: %d -> %d", gens, g)
	}

	st := svc.Stats()
	if st.Scenarios.Sweeps != 2 || st.Scenarios.SweepPoints != 20 || st.Scenarios.ActiveSweeps != 1 {
		t.Errorf("sweep stats: %+v", st.Scenarios)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/sweeps/sw-nope", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep id: %d", resp.StatusCode)
	}
}

func TestSweepDuplicatePointsDedup(t *testing.T) {
	svc, ts := newScenarioServer(t)
	putScenario(t, ts, "panel", scenSchema(42))

	// An explicit value list with duplicates expands to two points with
	// the same cache key; singleflight collapses them to one generation.
	body := `{"scenario":"panel","sweep":{"knows.mu":[0.1, 0.1]}}`
	resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/sweeps", "application/json", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", resp.StatusCode, raw)
	}
	var sw SweepView
	json.Unmarshal(raw, &sw)
	if len(sw.Points) != 2 || sw.Points[0].Job != sw.Points[1].Job {
		t.Fatalf("points: %+v", sw.Points)
	}
	waitSweepDone(t, ts, sw.ID)
	if g := svc.Stats().Generations; g != 1 {
		t.Fatalf("%d generations for a duplicate pair, want 1", g)
	}
}

func TestSweepValidationFirst(t *testing.T) {
	svc, ts := newScenarioServer(t)
	putScenario(t, ts, "panel", scenSchema(42))

	for name, body := range map[string]string{
		"unknown param":   `{"scenario":"panel","sweep":{"knows.gamma":[1,2]}}`,
		"empty axis":      `{"scenario":"panel","sweep":{"knows.mu":[]}}`,
		"no axes":         `{"scenario":"panel","sweep":{}}`,
		"bad range":       `{"scenario":"panel","sweep":{"knows.mu":{"from":0.5,"to":0.1,"step":0.05}}}`,
		"zero step":       `{"scenario":"panel","sweep":{"knows.mu":{"from":0.1,"to":0.5,"step":0}}}`,
		"axis also fixed": `{"scenario":"panel","params":{"knows.mu":"0.1"},"sweep":{"knows.mu":[0.2]}}`,
		"too many points": `{"scenario":"panel","sweep":{"seed":{"from":1,"to":1000,"step":1}}}`,
		"huge range axis": `{"scenario":"panel","sweep":{"seed":{"from":0,"to":1000000000,"step":1}}}`,
		"overflow range":  `{"scenario":"panel","sweep":{"seed":{"from":0,"to":1e18,"step":1}}}`,
	} {
		resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/sweeps", "application/json", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: %d %s", name, resp.StatusCode, raw)
		}
	}
	// Validation-first: none of the rejected grids submitted anything.
	if n := svc.submits.Load(); n != 0 {
		t.Fatalf("rejected sweeps submitted %d jobs", n)
	}
	if st := svc.Stats(); st.Scenarios.SweepPoints != 0 || st.Scenarios.Sweeps != 0 {
		t.Fatalf("rejected sweeps counted: %+v", st.Scenarios)
	}
}

// TestDeleteScenarioMidSweep pins the small-fix regression: deleting a
// scenario does not invalidate cached datasets or in-flight jobs that
// were submitted through it — a delete mid-sweep leaves every point
// completing and downloadable.
func TestDeleteScenarioMidSweep(t *testing.T) {
	_, ts := newScenarioServer(t)
	putScenario(t, ts, "doomed", scenSchema(42))

	body := `{"scenario":"doomed","sweep":{"knows.mu":[0.1, 0.2, 0.3]}}`
	resp, raw := doReq(t, http.MethodPost, ts.URL+"/v1/sweeps", "application/json", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", resp.StatusCode, raw)
	}
	var sw SweepView
	json.Unmarshal(raw, &sw)

	// Delete the scenario while the sweep's jobs are queued or running.
	if resp, raw := doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/doomed", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE mid-sweep: %d %s", resp.StatusCode, raw)
	}

	// Every point still completes and every table still downloads.
	view := waitSweepDone(t, ts, sw.ID)
	for _, p := range view.Points {
		if p.Status != string(StatusDone) {
			t.Fatalf("point %v: %s after delete", p.Params, p.Status)
		}
		if hashes := downloadAll(t, ts, p.Job); len(hashes) == 0 {
			t.Fatalf("point %v: no tables", p.Params)
		}
	}
	// New submissions by the deleted name are 404 — the name is gone,
	// the data is not.
	if code, _, out := submitJSON(t, ts, map[string]any{"scenario": "doomed"}); code != http.StatusNotFound {
		t.Fatalf("submit after delete: %d %s", code, out)
	}
}

// TestExpandAxisBoundedBeforeAllocation pins the fast-fail contract:
// the point cap is enforced before any value slice is allocated.
// Pre-fix, a small {"from":0,"to":1e9,"step":1} body materialised a
// ~1e9-entry slice (multi-GB) before expandSweep's total-points check
// ran, and larger ranges overflowed the float→int length conversion
// into a negative make() argument, panicking inside the handler.
func TestExpandAxisBoundedBeforeAllocation(t *testing.T) {
	for name, raw := range map[string]string{
		"huge range":     `{"from":0,"to":1e9,"step":1}`,
		"int overflow":   `{"from":0,"to":1e18,"step":1}`,
		"float overflow": `{"from":-1e308,"to":1e308,"step":1e-300}`,
	} {
		_, err := expandAxis("seed", json.RawMessage(raw), 256)
		if err == nil {
			t.Errorf("%s: expanded instead of failing fast", name)
			continue
		}
		var bad *BadParamsError
		if !errors.As(err, &bad) {
			t.Errorf("%s: %v, want *BadParamsError", name, err)
		}
	}

	// An explicit value list longer than the cap fails the same way.
	long := "[" + strings.Repeat("1,", 300) + "1]"
	if _, err := expandAxis("seed", json.RawMessage(long), 256); err == nil {
		t.Error("301-value list passed a 256-point cap")
	}

	// Boundary: exactly the cap is allowed, one more is not.
	vals, err := expandAxis("seed", json.RawMessage(`{"from":1,"to":4,"step":1}`), 4)
	if err != nil || len(vals) != 4 {
		t.Fatalf("4-point axis under cap 4: %v err=%v", vals, err)
	}
	if _, err := expandAxis("seed", json.RawMessage(`{"from":1,"to":5,"step":1}`), 4); err == nil {
		t.Fatal("5-point axis passed a 4-point cap")
	}
}

// TestFormatSweepValue pins the normalisation contract: a grid number
// must spell exactly like the hand-written override of the same value.
// Integral values print without an exponent ("1000000", never "1e+06",
// which dsl.Override's ParseInt rejects for count params and which
// hashes differently from "1000000" for edge params).
func TestFormatSweepValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1000000, "1000000"},
		{1234567, "1234567"},
		{0, "0"},
		{-3, "-3"},
		{0.05, "0.05"},
		{0.125, "0.125"},
		// Binary-float drift from range expansion is absorbed.
		{0.05 + 5*0.05, "0.3"},
		{0.30000000000000004, "0.3"},
	} {
		if got := formatSweepValue(tc.in); got != tc.want {
			t.Errorf("formatSweepValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestSweepIntegerCountAxis pins the formatting fix at the expansion
// layer: a count axis value of 1e6 must expand to "1000000" so the
// override whitelist accepts it, and the grid point's cache key must
// equal a hand-written override of the same number.
func TestSweepIntegerCountAxis(t *testing.T) {
	svc := newTestService(t, Config{ScenarioDir: t.TempDir()})
	if _, _, err := svc.PutScenario("panel", scenSchema(42), "", nil); err != nil {
		t.Fatal(err)
	}
	req := SweepRequest{
		Scenario: "panel",
		Sweep:    map[string]json.RawMessage{"Person.count": json.RawMessage(`[1000000, 2000000]`)},
	}
	_, points, _, err := svc.expandSweep(req, table.FormatCSV)
	if err != nil {
		t.Fatalf("integer count axis rejected: %v", err)
	}
	if got := points[0].params["Person.count"]; got != "1000000" {
		t.Fatalf("count spelled %q, want \"1000000\"", got)
	}
	sch, _, err := svc.resolveScenario("panel", map[string]string{"Person.count": "1000000"})
	if err != nil {
		t.Fatal(err)
	}
	if key := CacheKey(sch, table.FormatCSV); key != points[0].key {
		t.Fatalf("grid key %s != hand-written override key %s", points[0].key, key)
	}
}

// TestPrunePrefersSettledSweeps pins the eviction policy: past the
// bound, sweeps whose points have all settled go before a sweep with a
// live queued/running job, even when the in-flight sweep is the
// globally oldest record. Pre-fix, oldest-first eviction made an
// in-flight sweep's GET /v1/sweeps/{id} return 404 under churn while
// its points were still running.
func TestPrunePrefersSettledSweeps(t *testing.T) {
	svc := newTestService(t, Config{ScenarioDir: t.TempDir()})

	live := &Job{id: "k-live", status: StatusQueued, done: make(chan struct{})}
	svc.mu.Lock()
	svc.jobs[live.id] = live
	svc.mu.Unlock()

	base := time.Now()
	svc.sweepMu.Lock()
	svc.sweeps["sw-live"] = &Sweep{id: "sw-live", created: base.Add(-time.Hour),
		points: []sweepPoint{{key: "k-live"}}}
	for i := 0; i <= maxSweeps; i++ {
		// No job record and no cache entry: settled ("evicted" state).
		id := fmt.Sprintf("sw-settled-%03d", i)
		svc.sweeps[id] = &Sweep{id: id, created: base.Add(time.Duration(i) * time.Second),
			points: []sweepPoint{{key: fmt.Sprintf("k-%03d", i)}}}
	}
	svc.pruneSweepsLocked()
	_, liveKept := svc.sweeps["sw-live"]
	_, oldestSettledKept := svc.sweeps["sw-settled-000"]
	_, nextSettledKept := svc.sweeps["sw-settled-001"]
	n := len(svc.sweeps)
	svc.sweepMu.Unlock()

	if !liveKept {
		t.Fatal("prune evicted the in-flight sweep while settled sweeps existed")
	}
	if oldestSettledKept || nextSettledKept {
		t.Fatal("prune kept the oldest settled sweeps instead of evicting them")
	}
	if n != maxSweeps {
		t.Fatalf("%d sweeps after prune, want %d", n, maxSweeps)
	}
}
