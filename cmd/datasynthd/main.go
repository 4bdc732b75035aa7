// Command datasynthd serves dataset generation over HTTP: a caching
// daemon in front of the DataSynth engine.
//
//	datasynthd -listen :8080 -cache ./cache
//
//	# submit a schema (raw DSL body; format via query param)
//	curl -s -X POST --data-binary @social.dsl 'localhost:8080/v1/jobs?format=csv'
//
//	# poll (or long-poll) the job, then download a table
//	curl -s 'localhost:8080/v1/jobs/<id>?wait=30s'
//	curl -sO 'localhost:8080/v1/jobs/<id>/tables/nodes_Person.csv'
//
// Datasets are cached content-addressably under -cache: the key is the
// canonical schema hash (covering the seed and the generation-semantics
// version) plus the export format, so resubmitting the same schema —
// in any surface spelling — streams the committed bytes back without
// regenerating, and concurrent identical submissions collapse onto a
// single generation (singleflight). Both are sound because the engine
// guarantees byte-identical output for a fixed schema at any
// GOMAXPROCS; see docs/service.md.
//
// -cachemaxbytes bounds the cache with LRU eviction (entries under an
// open download stream are removed only after the last reader closes;
// an evicted schema regenerates byte-identically on resubmit), and
// GET /v1/metrics exposes Prometheus text-format counters, gauges, and
// per-phase latency histograms.
//
// The daemon fails jobs, not the process. Worker panics are recovered
// into job errors; a failed cache commit is retried (three attempts,
// 25ms then 50ms apart) and, if the disk stays broken (e.g. ENOSPC), the
// job still completes and serves its tables cache-bypass from the
// staging directory, marked "degraded": true. GET /v1/readyz answers
// 503 while degraded or draining so an orchestrator can prefer a
// healthier replica — GET /v1/healthz stays 200 because the daemon is
// live and still producing correct bytes. Startup quarantines crash
// debris (torn cache entries, orphaned temp dirs) into
// <cache>/.quarantine/ and regenerates on demand; see docs/service.md
// "Failure modes".
//
// -scenariodir enables the scenario registry: named, versioned,
// validation-first dataset recipes. PUT /v1/scenarios/{name} appends
// an immutable version (invalid DSL gets a 422 and writes nothing);
// POST /v1/jobs accepts {"scenario": "name@version", "params": {...}}
// and resolves it to the same content-hash cache key an anonymous
// submit of the resolved text would get; POST /v1/sweeps expands a
// parameter grid of at most 256 points into one cached job per point.
// See docs/scenarios.md.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and
// running jobs finish (up to -draintimeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datasynth/internal/service"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	cacheDir := flag.String("cache", "datasynthd-cache", "content-addressable dataset cache directory")
	cacheMaxBytes := flag.Int64("cachemaxbytes", 0, "cache size bound in bytes; storing past it evicts least recently used entries, streamed entries only after their last reader closes (0 = unbounded)")
	queueDepth := flag.Int("queue", 64, "job queue bound; a full queue rejects submissions with 503")
	jobWorkers := flag.Int("jobworkers", 2, "concurrent generation jobs; they share GOMAXPROCS, the daemon's only parallelism bound")
	maxNodes := flag.Int64("maxnodes", 0, "per-job node limit (0 = unlimited)")
	maxEdges := flag.Int64("maxedges", 0, "per-job edge limit (0 = unlimited)")
	jobTimeout := flag.Duration("jobtimeout", 10*time.Minute, "per-job generation timeout (0 = none)")
	scenarioDir := flag.String("scenariodir", "datasynthd-scenarios", "scenario registry directory; empty disables /v1/scenarios and /v1/sweeps")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	verbose := flag.Bool("v", false, "log job progress")
	flag.Parse()

	cfg := service.Config{
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMaxBytes,
		QueueDepth:    *queueDepth,
		JobWorkers:    *jobWorkers,
		MaxNodes:      *maxNodes,
		MaxEdges:      *maxEdges,
		JobTimeout:    *jobTimeout,
		ScenarioDir:   *scenarioDir,
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "datasynthd: "+format+"\n", args...)
	}
	if *verbose {
		cfg.Logf = logf
	}
	svc, err := service.New(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}

	server := &http.Server{
		Addr:              *listen,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:allow nakedgo body is a single channel send of ListenAndServe's return; a crash here should crash the daemon, not be recovered
	go func() { errc <- server.ListenAndServe() }()
	logf("listening on %s (cache %s, queue %d, %d job workers)",
		*listen, *cacheDir, *queueDepth, *jobWorkers)

	select {
	case err := <-errc:
		logf("serve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: start the service drain FIRST — it rejects new
	// submissions and wakes ?wait long-polls, so the HTTP shutdown
	// (which waits for active requests) isn't stuck behind a poller
	// burning the whole budget — then close the listener, then wait
	// for queued and running jobs so no accepted work is lost.
	logf("shutting down: draining jobs (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	//lint:allow nakedgo shutdown-path one-liner; Drain already isolates job panics, and recovering here would hide a drain crash behind a hung channel read
	go func() { drained <- svc.Drain(drainCtx) }()
	if err := server.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	if err := <-drained; err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("drained cleanly")
}
