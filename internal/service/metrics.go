package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// GET /v1/metrics: a dependency-free Prometheus text-format exporter
// (exposition format 0.0.4). Every sample is derived from the same
// counters /v1/stats serves, so the two surfaces always agree; the
// histograms add what JSON stats cannot express — per-phase latency
// distributions (generate / match / export / hash) fed from the
// timings the engine's RunReport already computes per job.

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// phase indexes one stage of the job pipeline in the latency
// histograms.
type phase int

const (
	phaseGenerate phase = iota // engine GenerateCtx wall time
	phaseMatch                 // summed match-task durations from the RunReport
	phaseExport                // engine ExportCtx wall time, the files' SHA-256 included
	phaseHash                  // cache store wall time: manifest write, commit, eviction (no hashing: the export took the digests)
	numPhases
)

var phaseNames = [numPhases]string{"generate", "match", "export", "hash"}

// latencyBuckets are the histogram upper bounds in seconds:
// exponential-ish from 1ms to 60s, matching the spread between a tiny
// schema's export and a paper-scale generation.
var latencyBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// latencyHist is a fixed-bucket histogram safe for concurrent observe.
type latencyHist struct {
	buckets  [len(latencyBuckets) + 1]atomic.Int64 // last slot is +Inf
	sumNanos atomic.Int64
	count    atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	sec := d.Seconds()
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.writeMetrics(&b)
	w.Header().Set("Content-Type", metricsContentType)
	if _, err := w.Write(b.Bytes()); err != nil {
		s.writeFailures.Add(1)
	}
}

// writeMetrics renders the full exposition. The counters come from one
// Stats snapshot so a scrape is internally consistent.
func (s *Service) writeMetrics(w io.Writer) {
	st := s.Stats()

	counter(w, "datasynthd_submits_total", "Schema submissions received (including rejected ones).",
		sample{v: float64(s.submits.Load())})
	counter(w, "datasynthd_cache_hits_total", "Submissions served from the dataset cache without a new generation.",
		sample{v: float64(st.Cache.Hits)})
	counter(w, "datasynthd_cache_misses_total", "Admitted submissions that required a generation.",
		sample{v: float64(st.Cache.Misses)})
	counter(w, "datasynthd_cache_evictions_total", "Cache entries evicted, by reason: corrupt (failed integrity check) or lru (size bound).",
		sample{labels: `reason="corrupt"`, v: float64(st.Cache.Evictions)},
		sample{labels: `reason="lru"`, v: float64(st.Cache.LRUEvictions)})
	counter(w, "datasynthd_singleflight_dedups_total", "Submissions collapsed onto an identical queued or running job.",
		sample{v: float64(st.SingleflightDedups)})
	counter(w, "datasynthd_generations_total", "Engine runs started.",
		sample{v: float64(st.Generations)})
	counter(w, "datasynthd_job_evictions_total", "Finished jobs evicted from the in-memory job map.",
		sample{v: float64(st.Jobs.Evicted)})
	counter(w, "datasynthd_response_write_failures_total", "HTTP responses that failed mid-write (client gone or I/O error).",
		sample{v: float64(s.writeFailures.Load())})
	counter(w, "datasynthd_panics_total", "Worker panics recovered into failed jobs instead of crashing the daemon.",
		sample{v: float64(st.Jobs.Panics)})
	counter(w, "datasynthd_store_retries_total", "Cache-store attempts beyond each job's first try (transient disk faults retried).",
		sample{v: float64(st.Cache.StoreRetries)})
	counter(w, "datasynthd_cache_bypass_total", "Jobs completed in degraded cache-bypass mode after store retries were exhausted.",
		sample{v: float64(st.Cache.Bypasses)})
	counter(w, "datasynthd_cache_quarantined_total", "Debris directories (orphaned temps, torn entries) quarantined by the startup recovery sweep.",
		sample{v: float64(st.Cache.Quarantined)})
	counter(w, "datasynthd_cache_cleanup_failures_total", "Cache directory removals that failed and were logged.",
		sample{v: float64(st.Cache.CleanupFailures)})
	counter(w, "datasynthd_scenario_submits_total", "Job submissions by recipe source: a registered scenario name or an anonymous schema body.",
		sample{labels: `by="name"`, v: float64(st.Scenarios.NamedSubmits)},
		sample{labels: `by="anonymous"`, v: float64(st.Scenarios.AnonymousSubmits)})
	counter(w, "datasynthd_sweeps_total", "Accepted sweep requests.",
		sample{v: float64(st.Scenarios.Sweeps)})
	counter(w, "datasynthd_sweep_points_total", "Individual grid points submitted through sweeps.",
		sample{v: float64(st.Scenarios.SweepPoints)})

	gauge(w, "datasynthd_queue_depth", "Jobs waiting for a worker.",
		sample{v: float64(st.QueueDepth)})
	gauge(w, "datasynthd_queue_capacity", "Job queue bound; a full queue rejects submissions.",
		sample{v: float64(st.QueueCapacity)})
	gauge(w, "datasynthd_inflight_engines", "Generation jobs currently running.",
		sample{v: float64(st.InFlight)})
	gauge(w, "datasynthd_jobs", "Jobs in the in-memory job map, by status.",
		sample{labels: `status="queued"`, v: float64(st.Jobs.Queued)},
		sample{labels: `status="running"`, v: float64(st.Jobs.Running)},
		sample{labels: `status="done"`, v: float64(st.Jobs.Done)},
		sample{labels: `status="failed"`, v: float64(st.Jobs.Failed)})
	gauge(w, "datasynthd_cache_entries", "Committed cache entries in the index.",
		sample{v: float64(st.Cache.Entries)})
	gauge(w, "datasynthd_cache_bytes", "Total bytes of committed cache entries (manifest file sizes).",
		sample{v: float64(st.Cache.Bytes)})
	gauge(w, "datasynthd_cache_max_bytes", "Configured cache size bound; 0 means unbounded.",
		sample{v: float64(st.Cache.MaxBytes)})
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	gauge(w, "datasynthd_draining", "1 while the service is draining and rejecting submissions.",
		sample{v: draining})
	degraded := 0.0
	if st.Degraded {
		degraded = 1
	}
	gauge(w, "datasynthd_degraded", "1 while cache stores are failing and completed jobs are served cache-bypass (/v1/readyz answers 503).",
		sample{v: degraded})
	gauge(w, "datasynthd_uptime_seconds", "Seconds since the service started.",
		sample{v: st.UptimeSeconds})
	// Scenario families are emitted (at zero) even with the registry
	// disabled, so dashboards never see a family appear and vanish.
	gauge(w, "datasynthd_scenarios", "Registered scenario names.",
		sample{v: float64(st.Scenarios.Count)})
	gauge(w, "datasynthd_scenario_versions", "Registered scenario versions across all names.",
		sample{v: float64(st.Scenarios.Versions)})

	s.writePhaseHistograms(w)
}

func (s *Service) writePhaseHistograms(w io.Writer) {
	const name = "datasynthd_phase_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Per-job pipeline phase latency, from the engine's run report.\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for ph := phase(0); ph < numPhases; ph++ {
		h := &s.phases[ph]
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{phase=%q,le=%q} %d\n", name, phaseNames[ph], formatFloat(ub), cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "%s_bucket{phase=%q,le=\"+Inf\"} %d\n", name, phaseNames[ph], cum)
		fmt.Fprintf(w, "%s_sum{phase=%q} %s\n", name, phaseNames[ph],
			formatFloat(time.Duration(h.sumNanos.Load()).Seconds()))
		fmt.Fprintf(w, "%s_count{phase=%q} %d\n", name, phaseNames[ph], h.count.Load())
	}
}

// sample is one sample line of a metric family.
type sample struct {
	labels string // rendered label pairs without braces, may be empty
	v      float64
}

func counter(w io.Writer, name, help string, samples ...sample) {
	family(w, name, "counter", help, samples)
}

func gauge(w io.Writer, name, help string, samples ...sample) {
	family(w, name, "gauge", help, samples)
}

func family(w io.Writer, name, typ, help string, samples []sample) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	// Label sets render in a fixed order so scrapes diff cleanly.
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].labels < samples[b].labels })
	for _, sm := range samples {
		if sm.labels == "" {
			fmt.Fprintf(w, "%s %s\n", name, formatFloat(sm.v))
		} else {
			fmt.Fprintf(w, "%s{%s} %s\n", name, sm.labels, formatFloat(sm.v))
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
