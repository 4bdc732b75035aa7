package service

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datasynth/internal/dsl"
	"datasynth/internal/faultfs"
	"datasynth/internal/store"
	"datasynth/internal/table"
)

// Injected-fault suite: every failure mode the daemon claims to
// survive — worker panics, transient and persistent store faults,
// crashes between stage and commit, torn entries, failing cleanups,
// and sustained random fault pressure — is driven here through
// faultfs.InjectFS and asserted on, under -race in CI.

// panicFS panics in the first Create — a job's first export file. (No
// schema is known to panic a worker any more: the one that did,
// uniform-int over the full int64 range, fails validation since PR 16.)
type panicFS struct {
	faultfs.OSFS
	once sync.Once
}

func (f *panicFS) Create(name string) (faultfs.File, error) {
	f.once.Do(func() { panic("injected panic creating " + name) })
	return f.OSFS.Create(name)
}

func waitTerminal(t testing.TB, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID())
	}
	return j.View()
}

func httpGet(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestPanicIsolationFailsOnlyJob: a panicking worker fails its own
// job — error carrying "panic" — while the daemon keeps accepting and
// completing other work, and the panic is counted.
func TestPanicIsolationFailsOnlyJob(t *testing.T) {
	svc := newTestService(t, Config{FS: &panicFS{}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	res, err := svc.Submit(testSchema(11), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, res.Job)
	if v.Status != StatusFailed {
		t.Fatalf("panicking job finished %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "panic") {
		t.Fatalf("failed job error should name the panic: %q", v.Error)
	}

	// The daemon survived: a normal submission still completes.
	good, err := svc.Submit(testSchema(21), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good.Job)

	if got := svc.Stats().Jobs.Panics; got < 1 {
		t.Fatalf("Stats.Jobs.Panics = %d, want >= 1", got)
	}
	code, body := httpGet(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(string(body), "datasynthd_panics_total 1") {
		t.Fatalf("metrics missing panics counter:\n%s", body)
	}
}

// TestStoreRetryRecoversTransientFault: a store that fails once and
// then succeeds costs a retry, not a failed job and not degraded mode.
func TestStoreRetryRecoversTransientFault(t *testing.T) {
	fsys := faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Times: 1,
	})
	svc := newTestService(t, Config{FS: fsys})
	res, err := svc.Submit(testSchema(31), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, res.Job)
	if v.Degraded {
		t.Fatal("a transient fault absorbed by retry must not degrade the job")
	}
	st := svc.Stats()
	if st.Cache.StoreRetries < 1 {
		t.Fatalf("StoreRetries = %d, want >= 1", st.Cache.StoreRetries)
	}
	if st.Degraded || st.Cache.Bypasses != 0 {
		t.Fatalf("degraded=%v bypasses=%d after a recovered store", st.Degraded, st.Cache.Bypasses)
	}
	if !svc.cache.has(res.Job.ID()) {
		t.Fatal("retried store must still commit the entry")
	}
}

// deadlineFS holds the first manifest write of the job keyed key until
// 15ms before the job's deadline, so that the deadline passes during
// the 25ms pause after the store fails.
type deadlineFS struct {
	faultfs.FS
	svc     *Service
	key     string
	timeout time.Duration
	once    sync.Once
}

func (f *deadlineFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(name) == manifestName {
		f.once.Do(func() {
			j := f.svc.Job(f.key)
			j.mu.Lock()
			deadline := j.started.Add(f.timeout)
			j.mu.Unlock()
			time.Sleep(time.Until(deadline) - 15*time.Millisecond)
		})
	}
	return f.FS.WriteFile(name, data, perm)
}

// TestStoreDeadlineDuringBackoffFails: a job whose deadline passes
// while a failed store waits to retry fails. It makes no further
// attempt, removes its stage directory, and neither bypasses nor
// commits.
func TestStoreDeadlineDuringBackoffFails(t *testing.T) {
	const timeout = time.Second
	cacheDir := t.TempDir()
	src := testSchema(33)
	sch, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(sch, table.FormatCSV)
	fsys := &deadlineFS{key: key, timeout: timeout, FS: faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC,
	})}
	svc := newTestService(t, Config{CacheDir: cacheDir, FS: fsys, JobTimeout: timeout})
	fsys.svc = svc
	res, err := svc.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, res.Job); v.Status != StatusFailed {
		t.Fatalf("job = %s, want failed: its deadline passed before the store could retry", v.Status)
	}
	st := svc.Stats()
	if st.Cache.StoreRetries != 0 || st.Cache.Bypasses != 0 || st.Cache.Entries != 0 || st.Degraded {
		t.Fatalf("retries=%d bypasses=%d entries=%d degraded=%v, want a failed job and nothing else",
			st.Cache.StoreRetries, st.Cache.Bypasses, st.Cache.Entries, st.Degraded)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, store.TempPrefix+key)); !os.IsNotExist(err) {
		t.Fatalf("the failed job left its stage directory behind: %v", err)
	}
}

// newStoreLoop returns a service over fsys and a staged, empty entry
// for driving the store loop directly, without a job.
func newStoreLoop(t *testing.T, fsys faultfs.FS) (svc *Service, key, stage string, m *Manifest) {
	t.Helper()
	svc = newTestService(t, Config{FS: fsys})
	key = strings.Repeat("a", 64) + "-csv"
	stage, err := svc.cache.dir.Stage(key)
	if err == nil {
		err = os.Mkdir(stage, 0o755)
	}
	if err != nil {
		t.Fatal(err)
	}
	return svc, key, stage, &Manifest{Version: 1, Key: key}
}

// TestStoreSucceedsAfterTransients: a store that fails once and then
// succeeds returns no error, commits the entry and counts one retry.
func TestStoreSucceedsAfterTransients(t *testing.T) {
	rule := &faultfs.Rule{Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC, Times: 1}
	svc, key, stage, m := newStoreLoop(t, faultfs.NewInject(1, rule))
	if _, err := svc.storeWithRetry(context.Background(), key, stage, m); err != nil {
		t.Fatalf("store after one transient fault: %v", err)
	}
	if st := svc.Stats(); rule.Fired() != 1 || st.Cache.StoreRetries != 1 || !svc.cache.has(key) {
		t.Fatalf("%d faults, %d retries, committed %v; want 1, 1 and committed", rule.Fired(), st.Cache.StoreRetries, svc.cache.has(key))
	}
}

// TestStoreAttemptBudgetExhausted: a persistent fault makes exactly
// storeAttempts attempts, counts storeAttempts-1 retries, commits
// nothing and returns the last attempt's error.
func TestStoreAttemptBudgetExhausted(t *testing.T) {
	rule := &faultfs.Rule{Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC}
	svc, key, stage, m := newStoreLoop(t, faultfs.NewInject(1, rule))
	if _, err := svc.storeWithRetry(context.Background(), key, stage, m); !errors.Is(err, faultfs.ENOSPC) || rule.Fired() != storeAttempts {
		t.Fatalf("persistent fault: %v after %d attempts; want ENOSPC after %d", err, rule.Fired(), storeAttempts)
	}
	if st := svc.Stats(); st.Cache.StoreRetries != storeAttempts-1 || svc.cache.has(key) {
		t.Fatalf("persistent fault: %d retries, committed %v; want %d and nothing committed", st.Cache.StoreRetries, svc.cache.has(key), storeAttempts-1)
	}
}

// TestStoreCanceledContextBeforeFirstAttempt: a context that is
// already done makes no attempt and returns the context's error.
func TestStoreCanceledContextBeforeFirstAttempt(t *testing.T) {
	rule := &faultfs.Rule{Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC}
	svc, key, stage, m := newStoreLoop(t, faultfs.NewInject(1, rule))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.storeWithRetry(ctx, key, stage, m); !errors.Is(err, context.Canceled) || rule.Fired() != 0 {
		t.Fatalf("store under a canceled context: %v after %d attempts; want context.Canceled and none", err, rule.Fired())
	}
	if st := svc.Stats(); st.Cache.StoreRetries != 0 || svc.cache.has(key) {
		t.Fatalf("canceled store: %d retries, committed %v; want none", st.Cache.StoreRetries, svc.cache.has(key))
	}
}

// stampFS records when each manifest write starts.
type stampFS struct {
	faultfs.FS
	mu     sync.Mutex
	stamps []time.Time
}

func (f *stampFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(name) == manifestName {
		f.mu.Lock()
		f.stamps = append(f.stamps, time.Now())
		f.mu.Unlock()
	}
	return f.FS.WriteFile(name, data, perm)
}

// TestStoreBackoffGrowth: the pauses between attempts are at least
// storeBackoff and then twice that.
func TestStoreBackoffGrowth(t *testing.T) {
	fsys := &stampFS{FS: faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC,
	})}
	svc, key, stage, m := newStoreLoop(t, fsys)
	if _, err := svc.storeWithRetry(context.Background(), key, stage, m); !errors.Is(err, faultfs.ENOSPC) {
		t.Fatalf("persistent fault: %v, want ENOSPC", err)
	}
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	if len(fsys.stamps) != storeAttempts {
		t.Fatalf("%d attempts, want %d", len(fsys.stamps), storeAttempts)
	}
	want := storeBackoff
	for i := 1; i < len(fsys.stamps); i++ {
		if gap := fsys.stamps[i].Sub(fsys.stamps[i-1]); gap < want {
			t.Fatalf("pause %d = %v, want at least %v", i, gap, want)
		}
		want *= 2
	}
}

// TestStoreLostAckCommits: the publishing rename happens but reports
// failure (the acknowledgement is lost). The entry is fully on disk, so
// the job must complete from it — indexed, not degraded, no bypass —
// instead of burning its retries on a stage directory that no longer
// exists and failing.
func TestStoreLostAckCommits(t *testing.T) {
	cacheDir := t.TempDir()
	src := testSchema(81)
	sch, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(sch, table.FormatCSV)
	// Only the commit names the final entry path; the export's own
	// renames all live under the staging directory.
	rule := &faultfs.Rule{Ops: faultfs.OpRename, Path: filepath.Join(cacheDir, key), After: true}
	svc := newTestService(t, Config{CacheDir: cacheDir, FS: faultfs.NewInject(1, rule)})
	res, err := svc.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, res.Job)
	if rule.Fired() == 0 {
		t.Fatal("the lost-ack rule never fired; the test proved nothing")
	}
	if v.Degraded {
		t.Fatal("a committed entry must not complete degraded")
	}
	if st := svc.Stats(); st.Degraded || st.Cache.Bypasses != 0 || st.Cache.Entries != 1 {
		t.Fatalf("degraded=%v bypasses=%d entries=%d after a lost-ack commit", st.Degraded, st.Cache.Bypasses, st.Cache.Entries)
	}
	if !svc.cache.has(key) {
		t.Fatal("the committed entry must be indexed")
	}
	if res2, err := svc.Submit(src, table.FormatCSV); err != nil || !res2.CacheHit {
		t.Fatalf("resubmit after a lost-ack commit: hit=%v err=%v", res2.CacheHit, err)
	}
}

// TestENOSPCDegradedBypass is the disk-pressure acceptance test: with
// the cache store persistently failing ENOSPC, a job still completes —
// degraded, serving byte-identical files cache-bypass — readyz flips
// to 503 while healthz stays 200, and a later successful store clears
// the degradation.
func TestENOSPCDegradedBypass(t *testing.T) {
	fsys := faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC,
	})
	svc := newTestService(t, Config{FS: fsys})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	src := testSchema(41)
	res, err := svc.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, res.Job)
	if !v.Degraded {
		t.Fatal("job completed under ENOSPC must report degraded")
	}
	if dir := res.Job.BypassDir(); dir == "" {
		t.Fatal("degraded job must carry its bypass directory")
	}

	// Downloads work and are byte-identical to a clean direct export.
	want := directExport(t, src, table.FormatCSV)
	if len(v.Files) == 0 || len(v.Files) != len(want) {
		t.Fatalf("degraded job lists %d files, want %d", len(v.Files), len(want))
	}
	for _, f := range v.Files {
		code, body := httpGet(t, ts.URL+"/v1/jobs/"+res.Job.ID()+"/tables/"+f.Name)
		if code != http.StatusOK {
			t.Fatalf("download %s = %d: %s", f.Name, code, body)
		}
		if got := sha256Hex(body); got != want[f.Name] {
			t.Fatalf("degraded download %s differs from clean export", f.Name)
		}
	}

	// Liveness vs readiness: still alive, not ready.
	if code, _ := httpGet(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 while degraded", code)
	}
	code, body := httpGet(t, ts.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz = %d %s, want 503 degraded", code, body)
	}
	st := svc.Stats()
	if !st.Degraded || st.Cache.Bypasses != 1 {
		t.Fatalf("stats degraded=%v bypasses=%d", st.Degraded, st.Cache.Bypasses)
	}
	if _, mbody := httpGet(t, ts.URL+"/v1/metrics"); !strings.Contains(string(mbody), "datasynthd_degraded 1") ||
		!strings.Contains(string(mbody), "datasynthd_cache_bypass_total 1") {
		t.Fatalf("metrics missing degraded/bypass samples:\n%s", mbody)
	}

	// Resubmitting the same schema rides along on the bypass job — no
	// wasted regeneration while the entry cannot be cached.
	res2, err := svc.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.Job != res.Job {
		t.Fatalf("resubmit of a degraded key should collapse onto the bypass job (hit=%v)", res2.CacheHit)
	}

	// Disk recovers: the next successful store clears the latch.
	fsys.ClearRules()
	ok, err := svc.Submit(testSchema(42), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, ok.Job); v.Degraded {
		t.Fatal("store succeeds again; job must not be degraded")
	}
	if code, _ := httpGet(t, ts.URL+"/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d after recovery, want 200", code)
	}
	if svc.Stats().Degraded {
		t.Fatal("degraded latch must clear after a successful store")
	}
}

// TestCrashRecoveryQuarantineAndRegenerate simulates dying between
// stage and commit: the store never commits (persistent fault on the
// manifest write), the stage directory survives the "crash", and a
// fresh daemon over the same cache dir quarantines the debris and
// regenerates the dataset byte-identical on resubmit.
func TestCrashRecoveryQuarantineAndRegenerate(t *testing.T) {
	cacheDir := t.TempDir()
	src := testSchema(51)
	want := directExport(t, src, table.FormatCSV)

	fsys := faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ErrCrash,
	})
	svc1 := newTestService(t, Config{CacheDir: cacheDir, FS: fsys})
	res, err := svc1.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job) // degraded: commit never happened
	key := res.Job.ID()
	stage := filepath.Join(cacheDir, store.TempPrefix+key)
	if _, err := os.Stat(stage); err != nil {
		t.Fatalf("stage dir must survive the crashed commit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc1.Drain(ctx)
	cancel()

	// "Reboot": clean filesystem, same cache directory.
	svc2 := newTestService(t, Config{CacheDir: cacheDir})
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	st := svc2.Stats()
	if st.Cache.Quarantined != 1 {
		t.Fatalf("startup sweep quarantined %d dirs, want 1", st.Cache.Quarantined)
	}
	if st.Cache.Entries != 0 {
		t.Fatalf("no entry was ever committed; index has %d", st.Cache.Entries)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatalf("stage debris must be moved out of the cache root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, store.QuarantineDir, store.TempPrefix+key)); err != nil {
		t.Fatalf("quarantine must preserve the debris: %v", err)
	}

	// Resubmit regenerates — byte-identical to the clean export.
	res2, err := svc2.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("nothing was committed; resubmit must regenerate")
	}
	v := waitDone(t, res2.Job)
	if v.Degraded {
		t.Fatal("clean filesystem: job must commit normally")
	}
	for _, f := range v.Files {
		code, body := httpGet(t, ts.URL+"/v1/jobs/"+res2.Job.ID()+"/tables/"+f.Name)
		if code != http.StatusOK {
			t.Fatalf("download %s = %d", f.Name, code)
		}
		if sha256Hex(body) != want[f.Name] {
			t.Fatalf("regenerated %s differs from clean export", f.Name)
		}
	}
}

// TestTornEntryQuarantinedOnRestart: an entry whose manifest was torn
// mid-write (truncated JSON on disk) is quarantined by the next
// startup sweep and regenerates byte-identical.
func TestTornEntryQuarantinedOnRestart(t *testing.T) {
	cacheDir := t.TempDir()
	src := testSchema(61)

	svc1 := newTestService(t, Config{CacheDir: cacheDir})
	res, err := svc1.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	v := waitDone(t, res.Job)
	key := res.Job.ID()
	for _, f := range v.Files {
		raw, err := os.ReadFile(filepath.Join(cacheDir, key, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		want[f.Name] = sha256Hex(raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc1.Drain(ctx)
	cancel()

	// Tear the committed manifest: keep half the bytes.
	mPath := filepath.Join(cacheDir, key, manifestName)
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, Config{CacheDir: cacheDir})
	st := svc2.Stats()
	if st.Cache.Quarantined != 1 || st.Cache.Entries != 0 {
		t.Fatalf("torn entry: quarantined=%d entries=%d, want 1/0", st.Cache.Quarantined, st.Cache.Entries)
	}
	res2, err := svc2.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("torn entry must not serve as a cache hit")
	}
	v2 := waitDone(t, res2.Job)
	for _, f := range v2.Files {
		raw, err := os.ReadFile(filepath.Join(cacheDir, key, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		if sha256Hex(raw) != want[f.Name] {
			t.Fatalf("regenerated %s differs from the original bytes", f.Name)
		}
	}
}

// TestCleanupFailureCounted: a discard whose RemoveAll fails is logged
// and counted instead of silently leaking.
func TestCleanupFailureCounted(t *testing.T) {
	fsys := faultfs.NewInject(1,
		// First export file Create fails -> the job discards its stage.
		&faultfs.Rule{Ops: faultfs.OpCreate, Path: store.TempPrefix, Nth: 1},
		// Match 1 is stage()'s pre-clean RemoveAll; match 2 is the
		// discard after the failed export — that one fails.
		&faultfs.Rule{Ops: faultfs.OpRemoveAll, Path: store.TempPrefix, Nth: 2},
	)
	svc := newTestService(t, Config{FS: fsys})
	res, err := svc.Submit(testSchema(71), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, res.Job)
	if v.Status != StatusFailed {
		t.Fatalf("job = %s, want failed (export Create fault)", v.Status)
	}
	if got := svc.Stats().Cache.CleanupFailures; got < 1 {
		t.Fatalf("CleanupFailures = %d, want >= 1", got)
	}
}

// TestServiceChaosUnderFaults floods the daemon with concurrent
// submissions while roughly 1 in 16 filesystem operations fails at a
// seeded random position. Invariants: every job reaches a terminal
// state (no deadlock, no crash), the daemon stays live, and — after
// the fault pressure lifts — every successfully completed job serves
// downloads byte-identical to a clean export of its schema.
func TestServiceChaosUnderFaults(t *testing.T) {
	const jobs = 12
	fsys := faultfs.NewInject(0xC4A05)
	svc := newTestService(t, Config{
		FS:         fsys,
		JobWorkers: 4,
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Arm the faults only after startup so the sweep of an empty fresh
	// directory isn't what absorbs them.
	fsys.AddRule(&faultfs.Rule{OneIn: 16})

	var wg sync.WaitGroup
	results := make([]*Job, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Submit(testSchema(100+i), table.FormatCSV)
			if err != nil {
				errs[i] = err // an injected cache-I/O fault at submit is a legal outcome
				return
			}
			results[i] = res.Job
		}(i)
	}
	wg.Wait()

	deadline := time.After(60 * time.Second)
	for i, j := range results {
		if j == nil {
			continue
		}
		select {
		case <-j.Done():
		case <-deadline:
			t.Fatalf("chaos: job %d stuck (no terminal state)", i)
		}
	}

	// Fault pressure lifts; the daemon must still be fully live.
	fsys.ClearRules()
	if code, _ := httpGet(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d after chaos", code)
	}

	verified := 0
	for i, j := range results {
		if j == nil {
			t.Logf("chaos: submit %d rejected: %v", i, errs[i])
			continue
		}
		v := j.View()
		if v.Status != StatusDone {
			t.Logf("chaos: job %d terminal as %s: %s", i, v.Status, v.Error)
			continue
		}
		want := directExport(t, testSchema(100+i), table.FormatCSV)
		for _, f := range v.Files {
			code, body := httpGet(t, ts.URL+"/v1/jobs/"+j.ID()+"/tables/"+f.Name)
			if code != http.StatusOK {
				// The entry may have been integrity-evicted under fault
				// pressure; a clean resubmit must still produce it.
				t.Logf("chaos: job %d file %s = %d; regenerating", i, f.Name, code)
				re, err := svc.Submit(testSchema(100+i), table.FormatCSV)
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, re.Job)
				code, body = httpGet(t, ts.URL+"/v1/jobs/"+re.Job.ID()+"/tables/"+f.Name)
				if code != http.StatusOK {
					t.Fatalf("chaos: job %d file %s unreachable after regen: %d", i, f.Name, code)
				}
			}
			if got := sha256Hex(body); got != want[f.Name] {
				t.Fatalf("chaos: job %d file %s differs from clean export", i, f.Name)
			}
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("chaos: no job completed successfully; fault rate too hot for the test to mean anything")
	}
	t.Logf("chaos: %d/%d jobs verified byte-identical; %d ops, %d faults injected",
		verified, jobs, fsys.Ops(), fsys.Injected())
}

// TestReadyzDraining: a draining daemon reports not-ready.
func TestReadyzDraining(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, ts.URL+"/v1/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz while draining = %d %s", code, body)
	}
}
