package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Service-path micro-benchmarks (the end-to-end service numbers are the
// svc-* workloads of go run -C bench .):
//
//   - ColdSubmit:       full submit→generate→export→commit per op
//   - WarmCacheHit:     submit of an already cached schema + one table
//     download — the steady-state serving cost
//   - SingleflightStorm: 16 concurrent identical cold submits; the
//     whole storm costs one generation
//
// Each runs over real HTTP (httptest) so the measured path includes
// routing, JSON, and streaming — what a client actually pays.

const benchStormWidth = 16

func newBenchService(b *testing.B) (*Service, *httptest.Server) {
	b.Helper()
	svc, err := New(Config{CacheDir: b.TempDir(), JobWorkers: 4})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, ts
}

func benchSubmitAndWait(b *testing.B, ts *httptest.Server, src string) string {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	id := decodeSubmit(b, resp)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "?wait=60s")
	if err != nil {
		b.Fatal(err)
	}
	var view JobView
	decodeJSON(b, resp, &view)
	if view.Status != StatusDone {
		b.Fatalf("job %s: %s", view.Status, view.Error)
	}
	return id
}

func decodeSubmit(b *testing.B, resp *http.Response) string {
	b.Helper()
	var sub submitResponse
	decodeJSON(b, resp, &sub)
	return sub.ID
}

func decodeJSON(b *testing.B, resp *http.Response, v any) {
	b.Helper()
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(resp.Body)
		b.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if err := jsonDecode(resp.Body, v); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServiceColdSubmit(b *testing.B) {
	_, ts := newBenchService(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A unique seed per iteration forces a cache miss every time.
		benchSubmitAndWait(b, ts, testSchema(1000+i))
	}
}

func BenchmarkServiceWarmCacheHit(b *testing.B) {
	_, ts := newBenchService(b)
	src := testSchema(500)
	id := benchSubmitAndWait(b, ts, src)
	tableURL := ts.URL + "/v1/jobs/" + id + "/tables/edges_knows"
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		if got := decodeSubmit(b, resp); got != id {
			b.Fatalf("warm submit keyed %s, want %s", got, id)
		}
		resp, err = http.Get(tableURL)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		bytes = n
	}
	b.SetBytes(bytes)
}

func BenchmarkServiceSingleflightStorm(b *testing.B) {
	svc, ts := newBenchService(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := testSchema(2000 + i)
		before := svc.Stats().Generations
		var wg sync.WaitGroup
		errs := make([]error, benchStormWidth)
		for c := 0; c < benchStormWidth; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
				if err != nil {
					errs[c] = err
					return
				}
				var sub submitResponse
				err = jsonDecode(resp.Body, &sub)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?wait=60s")
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		if got := svc.Stats().Generations - before; got != 1 {
			b.Fatalf("storm %d ran %d generations, want 1", i, got)
		}
	}
	b.ReportMetric(benchStormWidth, "submits/gen")
}

// BenchmarkServiceWarmHitUnderEviction measures the warm-hit serving
// path while LRU eviction churns the cache around it: the byte bound
// admits the hot entry plus roughly one cold one, every iteration
// stores a fresh cold dataset (evicting the previous iteration's), and
// only the hot submit + table download is on the timer. The gap vs
// BenchmarkServiceWarmCacheHit bounds the tax that eviction
// bookkeeping puts on the hit path (the per-iteration timer restarts
// and churn-generation GC pressure inflate it; the index operations
// themselves are O(1)).
func BenchmarkServiceWarmHitUnderEviction(b *testing.B) {
	// Probe the per-entry size with an unbounded throwaway service.
	probe, probeTS := newBenchService(b)
	benchSubmitAndWait(b, probeTS, testSchema(500))
	_, entryBytes := probe.cache.stats()

	svc, err := New(Config{
		CacheDir: b.TempDir(), JobWorkers: 4,
		CacheMaxBytes: 2*entryBytes + entryBytes/2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Drain(ctx)
	})

	src := testSchema(500)
	id := benchSubmitAndWait(b, ts, src)
	tableURL := ts.URL + "/v1/jobs/" + id + "/tables/edges_knows"
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchSubmitAndWait(b, ts, testSchema(3000+i)) // churn: evicts the previous cold entry
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/jobs", "text/plain", strings.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		if got := decodeSubmit(b, resp); got != id {
			b.Fatalf("warm submit keyed %s, want %s", got, id)
		}
		resp, err = http.Get(tableURL)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		bytes = n
	}
	b.SetBytes(bytes)
	// The first churn entry still fits beside the hot one; pressure
	// starts on the second iteration.
	if b.N > 1 && svc.Stats().Cache.LRUEvictions == 0 {
		b.Fatal("benchmark applied no eviction pressure")
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
