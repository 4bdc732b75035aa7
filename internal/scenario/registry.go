// Package scenario implements the named-scenario registry: a
// crash-safe, disk-backed store of versioned dataset recipes.
//
// A scenario is a name bound to an append-only sequence of immutable
// versions; each version records the canonical DSL text of a schema,
// its core.CanonicalHash, a creation time, and optional description
// and labels. The registry gives the generation service a server-side
// notion of "the Figure-3 LFR panel" that clients can submit by name
// instead of carrying schema text around — without weakening the
// cache's soundness story, because a named submission resolves to
// canonical DSL text first and is keyed by the same pure content hash
// as an anonymous submission of that text.
//
// Invariants, in the sdgen blueprint's "validation first" spirit:
//
//   - Nothing invalid is ever written. Put runs the full registration
//     pipeline (dsl.Parse, core.ValidateSchema, canonicalisation)
//     before touching the disk; a rejected registration leaves no
//     trace.
//   - Versions are immutable. Put appends; it never rewrites. Putting
//     text whose canonical form equals the latest version returns that
//     version instead of minting a duplicate.
//   - Commits and startup recovery are internal/store's protocol, the
//     one the dataset cache runs on: a crash never leaves a
//     half-written version under a valid name, and startup quarantines
//     what no longer validates (unparseable JSON, non-canonical or
//     invalid DSL, stray temp files) into <dir>/.quarantine/ instead
//     of serving or deleting it.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/faultfs"
	"datasynth/internal/schema"
	"datasynth/internal/store"
)

// ErrNotFound reports an unknown scenario name or version.
var ErrNotFound = errors.New("scenario: not found")

// ValidationError marks a registration the validation pipeline
// rejected — a client mistake (bad name, invalid DSL), as opposed to a
// registry I/O fault. The HTTP layer maps it to 422.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// nameRE constrains scenario names to safe identifiers: path- and
// URL-inert, no leading dot (reserved for registry bookkeeping), no
// "@" (reserved as the name@version separator in submit refs).
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidateName checks a scenario name against the registry's naming
// rules.
func ValidateName(name string) error {
	if !nameRE.MatchString(name) {
		return &ValidationError{fmt.Errorf("scenario: invalid name %q (want 1-64 of [a-zA-Z0-9._-], starting with a letter or digit)", name)}
	}
	return nil
}

// Validated is DSL source that passed the full registration pipeline.
// PUT /v1/scenarios and `datasynth -scenario` both go through Validate,
// so the CLI dry-run and the service agree exactly on what "valid"
// means and on the canonical text + hash a registration would commit.
type Validated struct {
	Schema *schema.Schema
	// Text is the canonical DSL rendering — the exact bytes a version
	// records and the service hashes for cache keys.
	Text string
	// Hash is core.CanonicalHash of the schema (covers the schema
	// version and the seed).
	Hash string
}

// Validate runs the registration pipeline on DSL source: parse,
// referential validation, dependency analysis, canonicalisation.
// Failures come back as *ValidationError.
func Validate(src string) (*Validated, error) {
	s, err := dsl.Parse(src)
	if err != nil {
		return nil, &ValidationError{err}
	}
	if err := core.ValidateSchema(s); err != nil {
		return nil, &ValidationError{err}
	}
	return &Validated{Schema: s, Text: core.CanonicalSchema(s), Hash: core.CanonicalHash(s)}, nil
}

// Version is one immutable version of a scenario.
type Version struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// DSL is the canonical schema text (dsl.Print form). Submitting it
	// anonymously and submitting the scenario by name resolve to the
	// same cache key.
	DSL string `json:"dsl"`
	// CanonicalSHA is core.CanonicalHash of the text at load time. It
	// is recomputed when the registry loads (a core.SchemaVersion bump
	// legitimately changes every hash), so it always matches what the
	// service would key a submission of this version on.
	CanonicalSHA string            `json:"canonical_sha256"`
	Created      time.Time         `json:"created"`
	Description  string            `json:"description,omitempty"`
	Labels       map[string]string `json:"labels,omitempty"`
}

// Info summarises one scenario for listings.
type Info struct {
	Name      string    `json:"name"`
	Versions  int       `json:"versions"`
	Latest    int       `json:"latest"`
	LatestSHA string    `json:"latest_canonical_sha256"`
	Created   time.Time `json:"created"` // latest version's creation time
}

// versionFileRE matches committed version file names. Versions start
// at 1 and leading zeros are rejected, so every loadable file name
// maps to a distinct version number — a tampered "v01.json" is
// quarantined as debris instead of loading as a duplicate of
// v1.json's version 1.
var versionFileRE = regexp.MustCompile(`^v([1-9][0-9]*)\.json$`)

// Registry is the disk-backed scenario store: a store.Dir holding
// <name>/vN.json, plus the naming, versioning and validation policy.
type Registry struct {
	dir  *store.Dir
	logf func(format string, args ...any)

	mu     sync.Mutex
	byName map[string][]*Version // versions sorted ascending
}

// NewRegistry opens (creating if needed) a registry rooted at dir and
// rebuilds its in-memory state from disk, quarantining torn entries.
func NewRegistry(dir string, fsys faultfs.FS, logf func(format string, args ...any)) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("scenario: registry directory is required")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d, err := store.Open(dir, fsys, logf)
	if err != nil {
		return nil, err
	}
	r := &Registry{dir: d, logf: logf, byName: map[string][]*Version{}}
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

// load is the startup recovery sweep, two levels of store.Recover with
// re-validation as the predicate. At the root, anything but a
// directory the naming rules could have created is debris; inside a
// scenario, anything but a version file that still validates is, and
// goes individually so one bad version never takes down its siblings.
func (r *Registry) load() error {
	var names []string
	err := r.dir.Recover("", func(de fs.DirEntry) bool {
		ok := de.IsDir() && ValidateName(de.Name()) == nil
		if ok {
			names = append(names, de.Name())
		}
		return ok
	})
	if err != nil {
		return err
	}
	for _, name := range names {
		var versions []*Version
		err := r.dir.Recover(name, func(de fs.DirEntry) bool {
			if de.IsDir() || !versionFileRE.MatchString(de.Name()) {
				return false
			}
			v, err := r.readVersion(name, de.Name())
			if err != nil {
				r.logf("scenario: %s/%s torn (%v); quarantining", name, de.Name(), err)
				return false
			}
			versions = append(versions, v)
			return true
		})
		if err != nil {
			return err
		}
		if len(versions) == 0 {
			// Every version was debris; drop the husk so the name lists as
			// unregistered (removal failure is non-fatal — an empty dir is
			// invisible to the API either way).
			r.dir.Remove(r.dir.Path(name))
			continue
		}
		sort.Slice(versions, func(a, b int) bool { return versions[a].Version < versions[b].Version })
		r.byName[name] = versions
	}
	return nil
}

// readVersion reads and re-validates one committed version file. The
// checks mirror what Put guarantees, so anything failing them is torn
// or tampered, not merely stale: the JSON must parse, agree with its
// path, and carry DSL that is valid and already canonical. The hash is
// recomputed rather than trusted — a core.SchemaVersion bump changes
// every canonical hash, and the registry must always report the hash a
// submission would actually be keyed on today.
func (r *Registry) readVersion(name, fname string) (*Version, error) {
	raw, err := r.dir.FS().ReadFile(r.dir.Path(filepath.Join(name, fname)))
	if err != nil {
		return nil, err
	}
	var v Version
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("unparseable: %w", err)
	}
	m := versionFileRE.FindStringSubmatch(fname)
	wantVer, _ := strconv.Atoi(m[1])
	if v.Name != name || v.Version != wantVer {
		return nil, fmt.Errorf("records %s@v%d, path says %s@v%d", v.Name, v.Version, name, wantVer)
	}
	val, err := Validate(v.DSL)
	if err != nil {
		return nil, fmt.Errorf("stored DSL no longer validates: %w", err)
	}
	if val.Text != v.DSL {
		return nil, fmt.Errorf("stored DSL is not canonical")
	}
	v.CanonicalSHA = val.Hash
	return &v, nil
}

// Put registers a new immutable version of a scenario, running the
// full validation pipeline before anything touches the disk. If the
// canonical form of src equals the scenario's latest version, that
// version is returned with created=false and nothing is written —
// re-registering the same recipe is idempotent, not version churn.
func (r *Registry) Put(name, src, description string, labels map[string]string) (v *Version, created bool, err error) {
	if err := ValidateName(name); err != nil {
		return nil, false, err
	}
	val, err := Validate(src)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.byName[name]
	next := 1
	if n := len(versions); n > 0 {
		latest := versions[n-1]
		if latest.DSL == val.Text {
			return latest, false, nil
		}
		next = latest.Version + 1
	}
	rec := &Version{
		Name:         name,
		Version:      next,
		DSL:          val.Text,
		CanonicalSHA: val.Hash,
		Created:      time.Now().UTC(),
		Description:  description,
		Labels:       labels,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, false, err
	}
	if err := r.dir.WriteFile(filepath.Join(name, fmt.Sprintf("v%d.json", next)), raw); err != nil {
		return nil, false, err
	}
	r.byName[name] = append(versions, rec)
	r.logf("scenario: registered %s@v%d (%s)", name, next, rec.CanonicalSHA[:12])
	return rec, true, nil
}

// Get returns one version of a scenario; version <= 0 means latest.
func (r *Registry) Get(name string, version int) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.byName[name]
	if len(versions) == 0 {
		return nil, fmt.Errorf("scenario %q: %w", name, ErrNotFound)
	}
	if version <= 0 {
		return versions[len(versions)-1], nil
	}
	for _, v := range versions {
		if v.Version == version {
			return v, nil
		}
	}
	return nil, fmt.Errorf("scenario %q version %d: %w", name, version, ErrNotFound)
}

// Versions returns all versions of a scenario, ascending.
func (r *Registry) Versions(name string) ([]*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.byName[name]
	if len(versions) == 0 {
		return nil, fmt.Errorf("scenario %q: %w", name, ErrNotFound)
	}
	out := make([]*Version, len(versions))
	copy(out, versions)
	return out, nil
}

// List returns a summary of every registered scenario, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Info, 0, len(names))
	for _, name := range names {
		versions := r.byName[name]
		latest := versions[len(versions)-1]
		out = append(out, Info{
			Name:      name,
			Versions:  len(versions),
			Latest:    latest.Version,
			LatestSHA: latest.CanonicalSHA,
			Created:   latest.Created,
		})
	}
	return out
}

// Delete unregisters a scenario (all versions). It touches nothing but
// the registry: jobs and cached datasets submitted through the name
// keep their resolved content hashes and are unaffected. If the disk
// removal fails the scenario stays registered and the error surfaces —
// a half-deleted name must not silently resurrect on restart.
func (r *Registry) Delete(name string) (versions int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	existing := r.byName[name]
	if len(existing) == 0 {
		return 0, fmt.Errorf("scenario %q: %w", name, ErrNotFound)
	}
	if err := r.dir.Remove(r.dir.Path(name)); err != nil {
		return 0, err
	}
	delete(r.byName, name)
	r.logf("scenario: deleted %s (%d versions)", name, len(existing))
	return len(existing), nil
}

// Counts reports registered scenario and total version counts.
func (r *Registry) Counts() (scenarios, versions int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, vs := range r.byName {
		versions += len(vs)
	}
	return len(r.byName), versions
}

// Quarantined reports how many torn entries the startup sweep moved
// aside.
func (r *Registry) Quarantined() int64 { return r.dir.Quarantined() }
