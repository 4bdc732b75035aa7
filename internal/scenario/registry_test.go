package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datasynth/internal/faultfs"
	"datasynth/internal/store"
)

// regDSL is a tiny valid schema; the seed is substituted per test so
// distinct versions are one edit apart.
const regDSL = `
graph reg {
  seed = %d
  node Person {
    count = 100
    property country : string = categorical(dict="countries")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=4, maxDegree=10, mu=0.2)
  }
}
`

func regSchema(seed int) string { return fmt.Sprintf(regDSL, seed) }

func newTestRegistry(t *testing.T, dir string, fsys faultfs.FS) *Registry {
	t.Helper()
	r, err := NewRegistry(dir, fsys, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPutGetVersioning(t *testing.T) {
	r := newTestRegistry(t, t.TempDir(), nil)

	v1, created, err := r.Put("panel", regSchema(1), "first", map[string]string{"fig": "3"})
	if err != nil || !created {
		t.Fatalf("Put v1: created=%v err=%v", created, err)
	}
	if v1.Version != 1 || v1.Name != "panel" || v1.CanonicalSHA == "" {
		t.Fatalf("v1 record: %+v", v1)
	}
	if v1.Description != "first" || v1.Labels["fig"] != "3" {
		t.Fatalf("v1 metadata lost: %+v", v1)
	}

	// Re-putting the same recipe (even in a different surface spelling —
	// extra whitespace) is idempotent, not version churn.
	again, created, err := r.Put("panel", "  "+regSchema(1), "ignored", nil)
	if err != nil || created {
		t.Fatalf("idempotent re-Put: created=%v err=%v", created, err)
	}
	if again.Version != 1 || again.CanonicalSHA != v1.CanonicalSHA {
		t.Fatalf("re-Put returned %+v, want v1", again)
	}

	// A different recipe appends an immutable v2; v1 stays readable.
	v2, created, err := r.Put("panel", regSchema(2), "", nil)
	if err != nil || !created || v2.Version != 2 {
		t.Fatalf("Put v2: %+v created=%v err=%v", v2, created, err)
	}
	if v2.CanonicalSHA == v1.CanonicalSHA {
		t.Fatal("distinct recipes share a canonical hash")
	}
	if got, err := r.Get("panel", 1); err != nil || got.CanonicalSHA != v1.CanonicalSHA {
		t.Fatalf("Get v1 after v2: %+v err=%v", got, err)
	}
	if got, err := r.Get("panel", 0); err != nil || got.Version != 2 {
		t.Fatalf("Get latest: %+v err=%v", got, err)
	}
	if _, err := r.Get("panel", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing version: %v", err)
	}
	if _, err := r.Get("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing name: %v", err)
	}

	vs, err := r.Versions("panel")
	if err != nil || len(vs) != 2 || vs[0].Version != 1 || vs[1].Version != 2 {
		t.Fatalf("Versions: %v err=%v", vs, err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "panel" || infos[0].Latest != 2 || infos[0].Versions != 2 {
		t.Fatalf("List: %+v", infos)
	}
	if sc, ver := r.Counts(); sc != 1 || ver != 2 {
		t.Fatalf("Counts: %d scenarios, %d versions", sc, ver)
	}
}

func TestPutInvalidLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)

	var ve *ValidationError
	if _, _, err := r.Put("bad", "graph nope {", "", nil); !errors.As(err, &ve) {
		t.Fatalf("invalid DSL: got %v, want *ValidationError", err)
	}
	// Validation-first: the rejected registration wrote nothing at all.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("rejected Put left debris: %v", des)
	}
	if _, _, err := r.Put("../escape", regSchema(1), "", nil); !errors.As(err, &ve) {
		t.Fatalf("invalid name: got %v, want *ValidationError", err)
	}
	if _, _, err := r.Put("a@b", regSchema(1), "", nil); !errors.As(err, &ve) {
		t.Fatalf("name with @: got %v, want *ValidationError", err)
	}
	if _, _, err := r.Put(".hidden", regSchema(1), "", nil); !errors.As(err, &ve) {
		t.Fatalf("leading-dot name: got %v, want *ValidationError", err)
	}
}

func TestRestartRebuildsState(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)
	want1, _, _ := r.Put("alpha", regSchema(1), "d", map[string]string{"k": "v"})
	r.Put("alpha", regSchema(2), "", nil)
	r.Put("beta", regSchema(3), "", nil)

	r2 := newTestRegistry(t, dir, nil)
	if sc, ver := r2.Counts(); sc != 2 || ver != 3 {
		t.Fatalf("after restart: %d scenarios, %d versions", sc, ver)
	}
	got, err := r2.Get("alpha", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.CanonicalSHA != want1.CanonicalSHA || got.DSL != want1.DSL ||
		got.Description != "d" || got.Labels["k"] != "v" {
		t.Fatalf("reloaded v1 drifted: %+v", got)
	}
	if r2.Quarantined() != 0 {
		t.Fatalf("clean restart quarantined %d entries", r2.Quarantined())
	}
}

func TestRestartQuarantinesTornEntries(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)
	r.Put("panel", regSchema(1), "", nil)

	// Simulate a crash mid-Put: a truncated committed file, an orphaned
	// temp, and a stray file at the registry root.
	sdir := filepath.Join(dir, "panel")
	if err := os.WriteFile(filepath.Join(sdir, "v2.json"), []byte(`{"name":"panel","ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, store.TempPrefix+"v3.json"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRegistry(t, dir, nil)
	if got := r2.Quarantined(); got != 3 {
		t.Fatalf("quarantined %d entries, want 3", got)
	}
	// The intact version survives; the torn v2 is gone, not served.
	v, err := r2.Get("panel", 0)
	if err != nil || v.Version != 1 {
		t.Fatalf("after quarantine: %+v err=%v", v, err)
	}
	qdes, err := os.ReadDir(filepath.Join(dir, store.QuarantineDir))
	if err != nil || len(qdes) != 3 {
		t.Fatalf("quarantine dir: %v err=%v", qdes, err)
	}
	// The next restart clears the previous quarantine window.
	r3 := newTestRegistry(t, dir, nil)
	if r3.Quarantined() != 0 {
		t.Fatalf("second restart re-quarantined %d", r3.Quarantined())
	}
	if _, err := os.Stat(filepath.Join(dir, store.QuarantineDir)); !os.IsNotExist(err) {
		t.Fatalf("old quarantine not cleared: %v", err)
	}
}

func TestRestartQuarantinesNonCanonicalDSL(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)
	v, _, _ := r.Put("panel", regSchema(1), "", nil)

	// Tamper: valid JSON, valid DSL, but not in canonical form — Put
	// can never have written it, so load must treat it as torn.
	raw, err := os.ReadFile(filepath.Join(dir, "panel", "v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Version
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec.DSL = "  " + v.DSL // same schema, non-canonical spelling
	tampered, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "panel", "v1.json"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRegistry(t, dir, nil)
	if r2.Quarantined() != 1 {
		t.Fatalf("quarantined %d, want 1", r2.Quarantined())
	}
	// The only version was torn, so the name unregisters entirely.
	if _, err := r2.Get("panel", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tampered scenario still served: %v", err)
	}
}

func TestENOSPCPutLeavesRegistryUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule *faultfs.Rule
	}{
		{"writefile", &faultfs.Rule{Ops: faultfs.OpWriteFile, Err: faultfs.ENOSPC}},
		{"torn-writefile", &faultfs.Rule{Ops: faultfs.OpWriteFile, Err: faultfs.ENOSPC, Short: true}},
		{"rename", &faultfs.Rule{Ops: faultfs.OpRename, Err: faultfs.ENOSPC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInject(1)
			r := newTestRegistry(t, dir, inj)
			if _, _, err := r.Put("panel", regSchema(1), "", nil); err != nil {
				t.Fatal(err)
			}

			inj.AddRule(tc.rule)
			_, _, err := r.Put("panel", regSchema(2), "", nil)
			if !errors.Is(err, faultfs.ENOSPC) {
				t.Fatalf("Put under %s: %v, want ENOSPC", tc.name, err)
			}
			inj.ClearRules()

			// The failed Put is invisible: latest is still v1, in memory
			// and after a restart over the same directory.
			if v, err := r.Get("panel", 0); err != nil || v.Version != 1 {
				t.Fatalf("after failed Put: %+v err=%v", v, err)
			}
			r2 := newTestRegistry(t, dir, nil)
			if sc, ver := r2.Counts(); sc != 1 || ver != 1 {
				t.Fatalf("restart after failed Put: %d scenarios, %d versions", sc, ver)
			}
			if v, err := r2.Get("panel", 0); err != nil || v.Version != 1 {
				t.Fatalf("restart latest: %+v err=%v", v, err)
			}
			// And the registry still accepts writes once space returns.
			if _, created, err := r2.Put("panel", regSchema(2), "", nil); err != nil || !created {
				t.Fatalf("Put after recovery: created=%v err=%v", created, err)
			}
		})
	}
}

// TestPutLostAckCommits: the publishing rename happens but reports
// failure. The version is on disk and will load at the next restart,
// so Put must return it as created, not an error for a version that
// then reappears.
func TestPutLostAckCommits(t *testing.T) {
	dir := t.TempDir()
	rule := &faultfs.Rule{Ops: faultfs.OpRename, Path: filepath.Join(dir, "panel", "v1.json"), After: true}
	r := newTestRegistry(t, dir, faultfs.NewInject(1, rule))
	v, created, err := r.Put("panel", regSchema(1), "", nil)
	if err != nil || !created || v.Version != 1 {
		t.Fatalf("Put with a lost-ack rename: %+v created=%v err=%v", v, created, err)
	}
	if rule.Fired() != 1 {
		t.Fatalf("lost-ack rule fired %d times, want 1", rule.Fired())
	}
	if got, err := r.Get("panel", 0); err != nil || got.Version != 1 {
		t.Fatalf("after lost-ack Put: %+v err=%v", got, err)
	}
	r2 := newTestRegistry(t, dir, nil)
	if sc, ver := r2.Counts(); sc != 1 || ver != 1 || r2.Quarantined() != 0 {
		t.Fatalf("restart: %d scenarios, %d versions, %d quarantined", sc, ver, r2.Quarantined())
	}
	if v2, created, err := r2.Put("panel", regSchema(2), "", nil); err != nil || !created || v2.Version != 2 {
		t.Fatalf("next Put: %+v created=%v err=%v", v2, created, err)
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)
	r.Put("panel", regSchema(1), "", nil)
	r.Put("panel", regSchema(2), "", nil)

	n, err := r.Delete("panel")
	if err != nil || n != 2 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	if _, err := r.Get("panel", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted scenario still served: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "panel")); !os.IsNotExist(err) {
		t.Fatalf("deleted scenario still on disk: %v", err)
	}
	if _, err := r.Delete("panel"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// A failed removal must NOT unregister the name (it would resurrect
	// on restart and the API would lie about its absence).
	inj := faultfs.NewInject(1)
	r2 := newTestRegistry(t, dir, inj)
	r2.Put("panel", regSchema(1), "", nil)
	inj.AddRule(&faultfs.Rule{Ops: faultfs.OpRemoveAll, Err: faultfs.ENOSPC})
	if _, err := r2.Delete("panel"); !errors.Is(err, faultfs.ENOSPC) {
		t.Fatalf("Delete under fault: %v", err)
	}
	inj.ClearRules()
	if _, err := r2.Get("panel", 0); err != nil {
		t.Fatalf("half-deleted scenario unregistered: %v", err)
	}
}

func TestConcurrentPutsRace(t *testing.T) {
	r := newTestRegistry(t, t.TempDir(), nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", i%4)
			if _, _, err := r.Put(name, regSchema(i), "", nil); err != nil {
				t.Errorf("Put %s: %v", name, err)
			}
			r.List()
			r.Counts()
			r.Get(name, 0)
		}(i)
	}
	wg.Wait()
	if sc, _ := r.Counts(); sc != 4 {
		t.Fatalf("got %d scenarios, want 4", sc)
	}
}

func TestValidateMatchesServiceHash(t *testing.T) {
	val, err := Validate(regSchema(7))
	if err != nil {
		t.Fatal(err)
	}
	// Canonicalisation is a fixpoint: validating the canonical text
	// reproduces the same text and hash.
	again, err := Validate(val.Text)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != val.Text || again.Hash != val.Hash {
		t.Fatalf("canonical text is not a fixpoint:\n%q\n%q", val.Text, again.Text)
	}
}

// TestRestartQuarantinesZeroPaddedVersion pins versionFileRE's leading-
// zero rejection: a tampered "v01.json" must not load as a duplicate of
// v1.json's version 1 (pre-fix both parsed to version 1 and Get served
// whichever sorted first), and "v0.json" must not load at all —
// versions start at 1. Both are debris Put can never have written, so
// the startup sweep quarantines them.
func TestRestartQuarantinesZeroPaddedVersion(t *testing.T) {
	dir := t.TempDir()
	r := newTestRegistry(t, dir, nil)
	want, _, err := r.Put("panel", regSchema(1), "", nil)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "panel", "v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tampered := range []string{"v01.json", "v0.json"} {
		if err := os.WriteFile(filepath.Join(dir, "panel", tampered), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := newTestRegistry(t, dir, nil)
	if got := r2.Quarantined(); got != 2 {
		t.Fatalf("quarantined %d entries, want 2", got)
	}
	vs, err := r2.Versions("panel")
	if err != nil || len(vs) != 1 || vs[0].Version != 1 || vs[0].CanonicalSHA != want.CanonicalSHA {
		t.Fatalf("versions after restart: %+v err=%v", vs, err)
	}
}
