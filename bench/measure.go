package main

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// setUps is how many times a run sets the workload up from nothing;
// setup_s is the median, so one slow daemon start does not decide it.
const setUps = 3

// maxFailures stops a measured loop early: a system that fails this
// often is broken, and retrying until the clock runs out only hides it
// behind thousands of instant failures.
const maxFailures = 5

// jobStat is one job as the harness saw it: spawn to exit with the
// files committed for the CLI, POST to the last byte of the last table
// for the service.
type jobStat struct {
	index int
	start time.Time
	wall  time.Duration
	// submit, wait and serve split a service job's wall time, and
	// tables splits serve per download. Zero for CLI jobs.
	submit, wait, serve time.Duration
	tables              []tableStat
	view                *jobView
	cacheHit            bool

	nodes, edges, bytes int64
	// userS, sysS and rssKB are the CLI child's rusage.
	userS, sysS float64
	rssKB       int64

	err error
}

type tableStat struct {
	name       string
	start, end time.Time
}

// runner drives one workload: the CLI and the daemon each have one.
type runner interface {
	// setUp builds the workload's state from nothing (scratch
	// directory, schema file or daemon, priming and warm-up jobs, all
	// verified off the clock) and returns the time it took.
	setUp() (time.Duration, error)
	// tearDown undoes setUp.
	tearDown()
	// job runs measured job i; indices below firstJob belong to setUp.
	job(i int) jobStat
	firstJob() int
	// verify checks a finished job's outputs off the clock and sets
	// st.err when they are wrong.
	verify(st *jobStat)
	// beginWindow is called once the last set-up is done; it returns
	// the CPU clock of a long-lived system under test, or nil when each
	// job carries its own rusage.
	beginWindow() cpuClock
	// finish is called when the window has closed, for the checks that
	// wait until then.
	finish() error
	// peakRSSMB is the high-water mark of the system under test.
	peakRSSMB(jobs []jobStat) float64
	// counts reports the resolved dataset size of one job.
	counts() datasetCounts
	// tally returns every job run so far (set-up jobs included), the
	// number that failed, and the time spent verifying.
	tally() (attempted, failed int, verifyS float64)
}

type datasetCounts struct {
	Nodes int64 `json:"nodes"`
	Edges int64 `json:"edges"`
	Bytes int64 `json:"bytes"`
}

// closedLoop runs job(first), job(first+1), … one at a time, each
// starting only when the last one returned, until win has run for d.
// after, if non-nil, checks a finished job with the window paused.
//
// Every workload has one client. Two on the warm workload, as many as
// the build box has cores, left the daemon and both clients sharing two
// cores: the median job time of six runs ranged over 9 %, against 2.8 %
// with one client.
func closedLoop(win *window, d time.Duration, first int, job func(int) jobStat, after func(*jobStat)) []jobStat {
	var out []jobStat
	failures := 0
	for i := first; win.elapsed() < d && failures < maxFailures; i++ {
		st := job(i)
		if after != nil {
			win.pause(func() { after(&st) })
		}
		if st.err != nil {
			failures++
		}
		out = append(out, st)
	}
	return out
}

// measured is one run of one workload, before it is reduced to metrics.
type measured struct {
	setupS  []float64
	jobs    []jobStat
	windowS float64
	userS   float64
	sysS    float64
	peakMB  float64
	counts  datasetCounts

	attempted, failed int
	verifyS           float64
	failures          []string
}

// measure sets the workload up setUps times, runs the closed loop for
// d on the last set-up, and tears everything down.
func measure(ctx context.Context, r runner, w workload, d time.Duration) (*measured, error) {
	m := &measured{}
	defer r.tearDown()
	for rep := 0; rep < setUps; rep++ {
		if rep > 0 {
			r.tearDown()
		}
		took, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		m.setupS = append(m.setupS, took.Seconds())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// The warm workload verifies its working set before and after the
	// window instead of after every job: hashing 52 MB takes five times
	// as long as the job it checks.
	after := r.verify
	if w.kind == kindSvcWarm {
		after = nil
	}
	cpuNow := r.beginWindow()
	win := startWindow(cpuNow)
	m.jobs = closedLoop(win, d, r.firstJob(), r.job, after)
	m.windowS = win.elapsed().Seconds()
	m.userS, m.sysS = win.cpu()
	if cpuNow == nil {
		for i := range m.jobs {
			m.userS += m.jobs[i].userS
			m.sysS += m.jobs[i].sysS
		}
	}
	m.peakMB = r.peakRSSMB(m.jobs)

	finishErr := r.finish()
	m.counts = r.counts()
	m.attempted, m.failed, m.verifyS = r.tally()
	for i := range m.jobs {
		if err := m.jobs[i].err; err != nil {
			m.failures = append(m.failures, fmt.Sprintf("job %d: %v", m.jobs[i].index, err))
		}
	}
	if finishErr != nil {
		m.failed++
		m.failures = append(m.failures, finishErr.Error())
	}
	if len(m.jobs) == 0 {
		return nil, errors.New("no job ran in the measured window")
	}
	return m, ctx.Err()
}

// walls is the wall time of every measured job that succeeded.
func (m *measured) walls() []float64 {
	var walls []float64
	for i := range m.jobs {
		if m.jobs[i].err == nil {
			walls = append(walls, m.jobs[i].wall.Seconds())
		}
	}
	return walls
}

// endToEnd reduces a run to the end-to-end metrics of BENCHMARK.json.
func (m *measured) endToEnd() map[string]metric {
	var edges int64
	for i := range m.jobs {
		if m.jobs[i].err == nil {
			edges += m.jobs[i].edges
		}
	}
	values := map[string]float64{
		"setup_s":       median(m.setupS),
		"job_s_p50":     median(m.walls()),
		"edges_per_s":   float64(edges) / m.windowS,
		"cpu_s_per_job": (m.userS + m.sysS) / float64(len(m.jobs)),
		"peak_rss_mb":   m.peakMB,
	}
	out := make(map[string]metric, len(endToEndMetrics))
	for _, def := range endToEndMetrics {
		out[def.name] = metric{values[def.name], def.unit}
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the benchmark reports.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s_p50", "s", "lower"},
	{"edges_per_s", "edges/s", "higher"},
	{"cpu_s_per_job", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}
