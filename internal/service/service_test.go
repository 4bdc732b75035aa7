package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// testDSL is a small two-type schema: fast to generate, but with a
// correlated edge so the full generate→structure→match→export pipeline
// runs. The seed is substituted per test via fmt.Sprintf.
const testDSL = `
graph svc {
  seed = %d
  node Person {
    count = 600
    property country : string = categorical(dict="countries")
    property creationDate : date = uniform-date(from="2015-01-01", to="2020-01-01")
  }
  node Message {
    property topic : string = categorical(dict="topics")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=6, maxDegree=20)
    correlate country homophily 0.7
  }
  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=4, gamma=2.0)
  }
}
`

func testSchema(seed int) string { return fmt.Sprintf(testDSL, seed) }

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc
}

func waitDone(t testing.TB, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	v := j.View()
	if v.Status != StatusDone {
		t.Fatalf("job %s finished %s: %s", j.ID(), v.Status, v.Error)
	}
	return v
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// directExport reproduces exactly what `datasynth -schema ... -format f`
// does: parse, generate, export. Returns file name -> SHA-256.
func directExport(t testing.TB, src string, format table.Format) map[string]string {
	t.Helper()
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(s)
	eng.ExportFormat = format
	d, err := eng.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.Export(d, dir); err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hashes[de.Name()] = sha256Hex(raw)
	}
	return hashes
}

// TestServiceEndToEndByteIdentical is the acceptance-criteria test: a
// cached GET /v1/jobs/{id}/tables/{name} response must be
// byte-identical (SHA-256) to a fresh direct `datasynth` export of the
// same schema + seed + format — for every table, in every format, both
// on the cold (freshly generated) and warm (cache hit) path.
func TestServiceEndToEndByteIdentical(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	src := testSchema(42)
	for _, format := range []table.Format{table.FormatCSV, table.FormatJSONL, table.FormatColumnar} {
		want := directExport(t, src, format)

		for _, pass := range []string{"cold", "warm"} {
			wantHit := pass == "warm"
			resp, err := http.Post(ts.URL+"/v1/jobs?format="+format.String(), "text/plain", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			var sub submitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if pass == "cold" && resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: submit status %d", format, pass, resp.StatusCode)
			}

			// Long-poll until done.
			resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?wait=60s")
			if err != nil {
				t.Fatal(err)
			}
			var view JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if view.Status != StatusDone {
				t.Fatalf("%s %s: job %s: %s", format, pass, view.Status, view.Error)
			}
			if wantHit && !view.CacheHit && !sub.Deduped {
				t.Errorf("%s warm pass was not a cache hit", format)
			}
			if len(view.Files) != len(want) {
				t.Fatalf("%s: job lists %d files, direct export wrote %d", format, len(view.Files), len(want))
			}

			for _, f := range view.Files {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/tables/" + f.Name)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: GET table %s: status %d", format, pass, f.Name, resp.StatusCode)
				}
				got := sha256Hex(body)
				if got != want[f.Name] {
					t.Errorf("%s %s: table %s: served sha256 %s, direct datasynth export %s",
						format, pass, f.Name, got, want[f.Name])
				}
				if got != f.SHA256 {
					t.Errorf("%s: table %s: served sha256 %s, manifest says %s", format, f.Name, got, f.SHA256)
				}
				if etag := resp.Header.Get("ETag"); etag != `"`+f.SHA256+`"` {
					t.Errorf("%s: table %s: ETag %s", format, f.Name, etag)
				}
				if ct := resp.Header.Get("Content-Type"); ct != format.ContentType() {
					t.Errorf("%s: table %s: Content-Type %s", format, f.Name, ct)
				}
				if d := resp.Header.Get("X-Datasynth-Degraded"); d != "" {
					t.Errorf("%s: cached table %s carries X-Datasynth-Degraded %q", format, f.Name, d)
				}
			}
		}
	}
	// Three formats, each generated exactly once: the warm passes must
	// all have been served from the cache.
	if g := svc.Stats().Generations; g != 3 {
		t.Errorf("%d generations for 3 formats × 2 passes, want 3", g)
	}
}

// TestSingleflightStorm: N concurrent identical submissions cost
// exactly one Engine.Generate, and every caller downloads byte-
// identical table bytes.
func TestSingleflightStorm(t *testing.T) {
	svc := newTestService(t, Config{JobWorkers: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const stormN = 16
	src := testSchema(7)

	type result struct {
		sub  submitResponse
		body []byte
		err  error
	}
	results := make([]result, stormN)
	var wg sync.WaitGroup
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
			if err != nil {
				r.err = err
				return
			}
			err = json.NewDecoder(resp.Body).Decode(&r.sub)
			resp.Body.Close()
			if err != nil {
				r.err = err
				return
			}
			// Wait for completion, then download the same table.
			resp, err = http.Get(ts.URL + "/v1/jobs/" + r.sub.ID + "?wait=60s")
			if err != nil {
				r.err = err
				return
			}
			var view JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				r.err = err
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			if view.Status != StatusDone {
				r.err = fmt.Errorf("job %s: %s", view.Status, view.Error)
				return
			}
			resp, err = http.Get(ts.URL + "/v1/jobs/" + r.sub.ID + "/tables/edges_knows")
			if err != nil {
				r.err = err
				return
			}
			r.body, r.err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()

	deduped := 0
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("storm caller %d: %v", i, results[i].err)
		}
		if results[i].sub.ID != results[0].sub.ID {
			t.Fatalf("storm produced distinct job ids %s and %s", results[0].sub.ID, results[i].sub.ID)
		}
		if !bytes.Equal(results[i].body, results[0].body) {
			t.Fatalf("storm caller %d downloaded different bytes", i)
		}
		if results[i].sub.Deduped {
			deduped++
		}
	}
	if g := svc.Stats().Generations; g != 1 {
		t.Errorf("storm of %d identical submits ran %d generations, want exactly 1", stormN, g)
	}
	if deduped != stormN-1 {
		t.Errorf("%d of %d submissions deduped, want %d", deduped, stormN, stormN-1)
	}
	if len(results[0].body) == 0 {
		t.Fatal("downloaded table is empty")
	}
}

// TestCorruptedCacheEntryEvicted: a cache entry whose file bytes no
// longer match the manifest checksum is evicted on lookup and the
// dataset regenerated — never served corrupt.
func TestCorruptedCacheEntryEvicted(t *testing.T) {
	cacheDir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: cacheDir})

	src := testSchema(11)
	res, err := svc.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job)
	key := res.Job.ID()

	// Corrupt one table file in place: flip a byte, same size, so only
	// the checksum can catch it.
	victim := filepath.Join(cacheDir, key, res.Job.Manifest().Files[0].Name)
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh service (no in-memory validation memo, no live job)
	// must detect the corruption at lookup, evict, and regenerate.
	svc2 := newTestService(t, Config{CacheDir: cacheDir})
	res2, err := svc2.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("corrupted entry served as a cache hit")
	}
	waitDone(t, res2.Job)
	if g := svc2.Stats().Generations; g != 1 {
		t.Errorf("regeneration after eviction ran %d generations, want 1", g)
	}
	if ev := svc2.Stats().Cache.Evictions; ev != 1 {
		t.Errorf("stats report %d evictions, want 1", ev)
	}
	// The regenerated bytes must match the manifest again.
	fixed, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if sha256Hex(fixed) != res2.Job.Manifest().Files[0].SHA256 {
		t.Error("regenerated file does not match its manifest checksum")
	}
}

// TestCacheHitAcrossRestart: a second service over the same cache dir
// serves the dataset without generating at all.
func TestCacheHitAcrossRestart(t *testing.T) {
	cacheDir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: cacheDir})
	src := testSchema(13)
	res, err := svc.Submit(src, table.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job)

	svc2 := newTestService(t, Config{CacheDir: cacheDir})
	// A surface-syntax variant of the same schema must hit too: the
	// cache key is the canonical hash, not the source text.
	variant := strings.Replace(src, "count = 600", "count    = 600", 1)
	res2, err := svc2.Submit(variant, table.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("restarted service missed the disk cache")
	}
	if res2.Job.ID() != res.Job.ID() {
		t.Fatalf("surface variant keyed %s, original %s", res2.Job.ID(), res.Job.ID())
	}
	waitDone(t, res2.Job)
	if g := svc2.Stats().Generations; g != 0 {
		t.Errorf("cache hit ran %d generations", g)
	}
}

// TestAdmissionLimits: declared counts beyond MaxNodes/MaxEdges are
// rejected at submit with a LimitError (HTTP 422), before any work.
func TestAdmissionLimits(t *testing.T) {
	svc := newTestService(t, Config{MaxNodes: 100})
	_, err := svc.Submit(testSchema(1), table.FormatCSV)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("600-node schema against a 100-node limit: %v", err)
	}
	if g := svc.Stats().Generations; g != 0 {
		t.Errorf("rejected schema still generated")
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(testSchema(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("limit violation returned HTTP %d, want 422", resp.StatusCode)
	}
}

// TestAdmissionInferredLimits: the admission check also catches sizes
// the schema never declares. The test schema declares only 600 Persons;
// the Message count (~1.5 per Person via powerlaw-out) and both edge
// counts (LFR's degree model, the 1→* out-degrees) are inferred from
// generator parameters — and still rejected at submit with 422, before
// any generation.
func TestAdmissionInferredLimits(t *testing.T) {
	var le *LimitError
	// 600 declared nodes pass a 700-node limit on declared counts alone;
	// the inferred Messages push the estimate past it.
	svc := newTestService(t, Config{MaxNodes: 700})
	if _, err := svc.Submit(testSchema(11), table.FormatCSV); !errors.As(err, &le) {
		t.Fatalf("schema with ~1500 implied nodes against a 700-node limit: %v", err)
	}
	if g := svc.Stats().Generations; g != 0 {
		t.Errorf("rejected schema still generated (%d)", g)
	}

	// No edge count is declared anywhere in the schema; the LFR estimate
	// (600 nodes x avgDegree 6 / 2 = 1800) must trip a 1000-edge limit.
	svc = newTestService(t, Config{MaxEdges: 1000})
	if _, err := svc.Submit(testSchema(12), table.FormatCSV); !errors.As(err, &le) {
		t.Fatalf("schema with ~1800 implied edges against a 1000-edge limit: %v", err)
	}
	if g := svc.Stats().Generations; g != 0 {
		t.Errorf("rejected schema still generated (%d)", g)
	}

	// Sanity: the same schema is admitted under generous limits, so the
	// estimator is not just rejecting everything.
	svc = newTestService(t, Config{MaxNodes: 100000, MaxEdges: 100000})
	res, err := svc.Submit(testSchema(13), table.FormatCSV)
	if err != nil {
		t.Fatalf("generous limits rejected the schema: %v", err)
	}
	waitDone(t, res.Job)
}

// TestJobTimeout: a job that cannot finish within JobTimeout fails and
// releases its worker; it is not cached.
func TestJobTimeout(t *testing.T) {
	svc := newTestService(t, Config{JobTimeout: time.Nanosecond})
	res, err := svc.Submit(testSchema(3), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-res.Job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("timed-out job never finished")
	}
	v := res.Job.View()
	if v.Status != StatusFailed {
		t.Fatalf("job with 1ns timeout finished %s", v.Status)
	}
	if !strings.Contains(v.Error, "deadline") && !strings.Contains(v.Error, "cancel") {
		t.Errorf("failure is not a cancellation: %s", v.Error)
	}
	if n, _ := svc.cache.stats(); n != 0 {
		t.Errorf("failed job left %d cache entries", n)
	}
}

// TestDrainRejectsSubmissions: after Drain starts, submissions fail
// with ErrDraining; queued work still completes.
func TestDrainRejectsSubmissions(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := svc.Submit(testSchema(5), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job) // accepted work finished despite the drain
	if _, err := svc.Submit(testSchema(6), table.FormatCSV); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

// TestDrainWakesLongPolls: a ?wait long-poll parked on an unfinished
// job must return as soon as Drain starts (with the job's current
// status), so an HTTP shutdown is never stuck behind pollers for the
// whole drain budget.
func TestDrainWakesLongPolls(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A job that never completes: registered but never enqueued, so
	// only the drain signal can wake its pollers.
	s, err := dsl.Parse(testSchema(91))
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(CacheKey(s, table.FormatCSV), s, table.FormatCSV)
	svc.mu.Lock()
	svc.jobs[j.ID()] = j
	svc.mu.Unlock()

	type pollResult struct {
		view    JobView
		elapsed time.Duration
		err     error
	}
	res := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "?wait=60s")
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		res <- pollResult{view: v, elapsed: time.Since(start), err: err}
	}()

	time.Sleep(100 * time.Millisecond) // let the poll park
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.view.Status != StatusQueued {
			t.Errorf("woken poll reported %s, want queued", r.view.Status)
		}
		if r.elapsed > 10*time.Second {
			t.Errorf("poll held %v past the drain signal", r.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still parked 10s after Drain — shutdown would hang behind it")
	}
}

// TestHTTPErrors covers the non-happy-path status codes.
func TestHTTPErrors(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/jobs/nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code := get("/v1/jobs/nonexistent/tables/nodes_Person.csv"); code != http.StatusNotFound {
		t.Errorf("table of unknown job: %d, want 404", code)
	}

	post := func(body, ct, query string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("not a schema", "text/plain", ""); code != http.StatusBadRequest {
		t.Errorf("unparseable schema: %d, want 400", code)
	}
	if code := post("", "text/plain", ""); code != http.StatusBadRequest {
		t.Errorf("empty schema: %d, want 400", code)
	}
	if code := post(testSchema(1), "text/plain", "?format=parquet"); code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", code)
	}
	if code := post(`{"schema": 42}`, "application/json", ""); code != http.StatusBadRequest {
		t.Errorf("bad JSON body: %d, want 400", code)
	}

	// A completed job must not serve paths outside its manifest.
	res, err := svc.Submit(testSchema(21), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job)
	if code := get("/v1/jobs/" + res.Job.ID() + "/tables/manifest.json"); code != http.StatusNotFound {
		t.Errorf("manifest served as a table: %d, want 404", code)
	}
	if code := get("/v1/jobs/" + res.Job.ID() + "/tables/..%2Fmanifest.json"); code != http.StatusNotFound {
		t.Errorf("traversal name: %d, want 404", code)
	}

	// Healthz and stats respond.
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Generations < 1 || st.Cache.Entries < 1 {
		t.Errorf("stats implausible after a completed job: %+v", st)
	}
}

// TestJobMapEviction: the in-memory job map is bounded — once maxJobs
// is reached, the oldest finished jobs are evicted on the next submit,
// /v1/stats reports the eviction, and resubmitting an evicted schema is
// served from the disk cache (no regeneration).
func TestJobMapEviction(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	first, err := svc.Submit(testSchema(41), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first.Job)
	// Finished records, each newer than the first job, fill the map to
	// maxJobs-1: the next submit fits, the one after it does not.
	svc.mu.Lock()
	for i := len(svc.jobs); i < maxJobs-1; i++ {
		j := newJob(fmt.Sprintf("filler-%d", i), nil, table.FormatCSV)
		j.status, j.finished = StatusDone, time.Now()
		close(j.done)
		svc.jobs[j.id] = j
	}
	svc.mu.Unlock()
	for _, seed := range []int{42, 43} {
		res, err := svc.Submit(testSchema(seed), table.FormatCSV)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, res.Job)
	}

	// The second submit pushed the map past maxJobs; the oldest
	// finished job (seed 41) must be gone.
	if svc.Job(first.Job.ID()) != nil {
		t.Errorf("oldest finished job still in the map after eviction")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Jobs.Evicted != 1 {
		t.Errorf("stats report %d evicted jobs, want 1", st.Jobs.Evicted)
	}
	if total := st.Jobs.Queued + st.Jobs.Running + st.Jobs.Done + st.Jobs.Failed; total > maxJobs {
		t.Errorf("job map holds %d jobs, maxJobs is %d", total, maxJobs)
	}

	// The evicted job's dataset persists in the disk cache: the same
	// schema comes back as a hit without a new generation.
	gens := svc.Stats().Generations
	again, err := svc.Submit(testSchema(41), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Errorf("resubmit of evicted schema was not a cache hit")
	}
	if g := svc.Stats().Generations; g != gens {
		t.Errorf("resubmit of evicted schema regenerated (%d -> %d)", gens, g)
	}
}

// TestJSONSubmitBody: the JSON submission shape works end to end.
func TestJSONSubmitBody(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, _ := json.Marshal(submitRequest{Schema: testSchema(31), Format: "columnar"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.Format != "columnar" {
		t.Errorf("JSON-declared format lost: %s", sub.Format)
	}
	j := svc.Job(sub.ID)
	if j == nil {
		t.Fatal("submitted job not registered")
	}
	waitDone(t, j)
}

// TestSubmitRejectsBadGeneratorSpecs: admission builds every property
// generator, so an unknown generator, a misspelt parameter, a kind
// mismatch or an empty range is a 400 at POST /v1/jobs — naming type.property — and costs no
// engine run, instead of an admitted job that fails at its first row.
func TestSubmitRejectsBadGeneratorSpecs(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, decl := range []string{
		`property y : int = nosuchgen()`,
		`property y : int = uniform-int(lo=5, hi=1)`,
		`property y : int = uniform-int(low=5, hi=10)`,
		`property y : string = text(min=0, max=3)`,
		`property y : int = categorical(values="a|b")`,
	} {
		src := "graph g {\n  seed = 1\n  node A {\n    count = 10\n    " + decl + "\n  }\n}"
		resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "A.y") {
			t.Errorf("%s: %d %s, want 400 naming A.y", decl, resp.StatusCode, body)
		}
	}
	if n := svc.Stats().Generations; n != 0 {
		t.Errorf("%d engine runs started for schemas that must not be admitted", n)
	}
}

// TestCorrelationValidationFirst: a correlation the matchers cannot run
// — on a non-string property, or fused onto a head property whose
// generator is not categorical — fails the checks `datasynth -validate`
// runs (dsl.Parse, then core.ValidateSchema) and is a 400 at POST
// /v1/jobs, each naming the edge and the property, with no engine run.
// All three used to validate and be admitted, then fail their
// structure or match task.
func TestCorrelationValidationFirst(t *testing.T) {
	const (
		intV  = `property v : int = uniform-int(lo=1, hi=5)`
		catV  = `property v : string = categorical(values="a|b")`
		catC  = `property c : string = categorical(values="x|y")`
		textC = `property c : string = text(min=1, max=2)`
	)
	fused := func(tailProp, headProp string) string {
		return `graph g {
  seed = 1
  node P {
    count = 50
    ` + tailProp + `
  }
  node M {
    ` + headProp + `
  }
  edge posts : P 1-* M {
    structure = powerlaw-out(min=1, max=4, gamma=2.0)
    correlate tail.v with head.c homophily 0.8 fused
  }
}`
	}
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, c := range []struct{ name, src, edge, prop string }{
		{"int monopartite property", `graph g {
  seed = 1
  node P {
    count = 50
    ` + intV + `
  }
  edge knows : P *-* P {
    structure = erdos-renyi(edgesPerNode=3)
    correlate v homophily 0.8
  }
}`, "knows", "P.v"},
		{"int fused tail property", fused(intV, catC), "posts", "P.v"},
		{"text fused head property", fused(catV, textC), "posts", "M.c"},
	} {
		s, err := dsl.Parse(c.src)
		if err == nil {
			err = core.ValidateSchema(s)
		}
		if err == nil || !strings.Contains(err.Error(), c.edge) || !strings.Contains(err.Error(), c.prop) {
			t.Errorf("%s: validation = %v, want an error naming edge %s and %s", c.name, err, c.edge, c.prop)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(c.src))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.edge) || !strings.Contains(string(body), c.prop) {
			t.Errorf("%s: POST %d %s, want 400 naming edge %s and %s", c.name, resp.StatusCode, body, c.edge, c.prop)
		}
	}
	if n := svc.Stats().Generations; n != 0 {
		t.Errorf("%d engine runs started for schemas that must not be admitted", n)
	}
}

// TestSubmitRejectsNodeCountPastIDBound: a declared node count past the
// uint32 endpoint id bound is a 400 at POST /v1/jobs naming the type,
// with no engine run.
func TestSubmitRejectsNodeCountPastIDBound(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	src := "graph g {\n  seed = 1\n  node A {\n    count = 4294967296\n  }\n}"
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "node type A") {
		t.Errorf("POST: %d %s, want 400 naming node type A", resp.StatusCode, body)
	}
	if n := svc.Stats().Generations; n != 0 {
		t.Errorf("%d engine runs started for a schema that must not be admitted", n)
	}
}

// TestSubmitRejectsBadStructure: admission builds every structure
// generator too, so an unknown one, a parameter it refuses or one it
// does not have is a 400 at POST /v1/jobs — naming the edge and the
// generator — and a 422 at PUT /v1/scenarios, with no engine run and
// nothing queued or registered. The first three used to be admitted and
// fail at task S:rates; the misspelt parameter used to generate with
// the default, cached under a hash of its own.
func TestSubmitRejectsBadStructure(t *testing.T) {
	svc := newTestService(t, Config{ScenarioDir: t.TempDir()})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	const good = `zipf-attachment(min=1, max=4, gamma=2.0, theta=1.1)`
	src := func(structure string) string {
		return `graph g {
  seed = 1
  node U {
    count = 40
    property seg : string = categorical(values="a|b")
  }
  node P {
    count = 20
    property cat : string = categorical(values="x|y")
  }
  edge rates : U *-* P {
    structure = ` + structure + `
  }
}`
	}
	for _, c := range []struct{ structure, want string }{
		{`nosuchgen(min=1)`, "nosuchgen"},
		{`zipf-attachment(theta=-1)`, "zipf-attachment needs theta"},
		{`zipf-attachment(min=9, max=3)`, "max, got [9,3]"},
		{`zipf-attachment(bogus=3, min=1, max=4)`, "zipf-attachment has no parameter bogus"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src(c.structure)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "edge rates") || !strings.Contains(string(body), c.want) {
			t.Errorf("POST %s: %d %s, want 400 naming edge rates and %q", c.structure, resp.StatusCode, body, c.want)
		}
		resp, body = doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/bad", "text/plain", src(c.structure))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), c.want) {
			t.Errorf("PUT %s: %d %s, want 422 naming %q", c.structure, resp.StatusCode, body, c.want)
		}
	}
	st := svc.Stats()
	if n := svc.Stats().Generations; n != 0 || st.Jobs.Queued+st.Jobs.Running+st.Jobs.Done+st.Jobs.Failed != 0 || st.QueueDepth != 0 {
		t.Errorf("%d engine runs, jobs %+v, queue depth %d for schemas that must not be admitted", n, st.Jobs, st.QueueDepth)
	}
	if st.Scenarios.Puts != 0 {
		t.Errorf("%d scenario versions registered from schemas that must not validate", st.Scenarios.Puts)
	}
	if _, err := os.Stat(filepath.Join(svc.cfg.ScenarioDir, "bad")); !os.IsNotExist(err) {
		t.Errorf("rejected PUT left a trace: %v", err)
	}
	// The well-formed spec is admitted and registered.
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src(good)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: %d %s, want it admitted", good, resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/good", "text/plain", src(good)); resp.StatusCode != http.StatusCreated {
		t.Errorf("PUT %s: %d %s, want 201", good, resp.StatusCode, body)
	}
}

// TestSubmitRejectsPassesOnTailHead: `passes` on a fused tail/head
// correlation, whose structure is drawn already matched, is a 400 at
// admission naming the edge, with no engine run. On a bipartite
// tail/head correlation it is admitted, and the job's report notes the
// refinement passes of its match task.
func TestSubmitRejectsPassesOnTailHead(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	src := `graph g {
  seed = 1
  node U {
    count = 40
    property seg : string = categorical(values="a|b")
  }
  node P {
    property cat : string = categorical(values="x|y")
  }
  edge rates : U 1-* P {
    structure = powerlaw-out(min=1, max=4, gamma=2.0)
    correlate tail.seg with head.cat homophily 0.7 fused passes 2
  }
}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `edge \"rates\"`) {
		t.Errorf("%d %s, want 400 naming edge \"rates\"", resp.StatusCode, body)
	}
	if n := svc.Stats().Generations; n != 0 {
		t.Errorf("%d engine runs started for a schema that must not be admitted", n)
	}
	// The same correlation matched by SBM-Part is admitted and refined.
	bipartite := strings.NewReplacer("P {", "P {\n    count = 20", "U 1-* P", "U *-* P",
		"powerlaw-out(min=1, max=4, gamma=2.0)", "zipf-attachment(min=1, max=4, gamma=2.0, theta=1.1)",
		" fused", "").Replace(src)
	resp, err = http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(bipartite))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 {
		t.Fatalf("passes on a bipartite correlation: status %d, %v", resp.StatusCode, err)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || view.Status != StatusDone {
		t.Fatalf("job %s: %v %s", view.Status, err, view.Error)
	}
	var report struct {
		Timings []struct{ Kind, Note string }
	}
	if err := json.Unmarshal(view.Report, &report); err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, tt := range report.Timings {
		if tt.Kind == "match" {
			notes = append(notes, tt.Note)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], " (passes ") {
		t.Errorf("match notes %q, want one with a (passes …) breakdown", notes)
	}
}
