package sgen

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"datasynth/internal/cascade"
)

// Registry resolves DSL structure-generator specs into concrete
// generators, mirroring pgen.Registry. Monopartite and bipartite
// generators live in separate namespaces because edge cardinality
// decides which is legal.
type Registry struct {
	mono map[string]MonoFactory
	bip  map[string]BipFactory
	// err records a failed built-in registration. Registration used to
	// panic(err) — which, reached through core.Engine inside a service
	// worker, would kill the whole daemon — so the first error is
	// recorded here instead and surfaced from every Build call: a
	// broken registry fails the job that touches it, never the process.
	err error
}

// MonoFactory builds a monopartite generator.
type MonoFactory func(params map[string]string, seed uint64) (Generator, error)

// BipFactory builds a bipartite generator.
type BipFactory func(params map[string]string, seed uint64) (BipartiteGenerator, error)

// NewRegistry returns a registry with every built-in SG.
func NewRegistry() *Registry {
	r := &Registry{mono: map[string]MonoFactory{}, bip: map[string]BipFactory{}}
	registerBuiltinSGs(r)
	return r
}

// RegisterMono adds a monopartite factory.
func (r *Registry) RegisterMono(name string, f MonoFactory) error {
	if _, dup := r.mono[name]; dup {
		return fmt.Errorf("sgen: generator %q already registered", name)
	}
	r.mono[name] = f
	return nil
}

// RegisterBipartite adds a bipartite factory.
func (r *Registry) RegisterBipartite(name string, f BipFactory) error {
	if _, dup := r.bip[name]; dup {
		return fmt.Errorf("sgen: bipartite generator %q already registered", name)
	}
	r.bip[name] = f
	return nil
}

// HasMono reports whether name is a monopartite generator.
func (r *Registry) HasMono(name string) bool { _, ok := r.mono[name]; return ok }

// HasBipartite reports whether name is a bipartite generator.
func (r *Registry) HasBipartite(name string) bool { _, ok := r.bip[name]; return ok }

// BuildMono resolves a monopartite generator spec. The generator it
// returns has passed Validate.
func (r *Registry) BuildMono(name string, params map[string]string, seed uint64) (Generator, error) {
	if r.err != nil {
		return nil, r.err
	}
	f, ok := r.mono[name]
	if !ok {
		return nil, fmt.Errorf("sgen: unknown structure generator %q (have: %v)", name, r.MonoNames())
	}
	g, err := f(params, seed)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildBipartite resolves a bipartite generator spec. The generator it
// returns has passed Validate.
func (r *Registry) BuildBipartite(name string, params map[string]string, seed uint64) (BipartiteGenerator, error) {
	if r.err != nil {
		return nil, r.err
	}
	f, ok := r.bip[name]
	if !ok {
		return nil, fmt.Errorf("sgen: unknown bipartite structure generator %q (have: %v)", name, r.BipartiteNames())
	}
	g, err := f(params, seed)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MonoNames lists monopartite generators, sorted.
func (r *Registry) MonoNames() []string {
	out := make([]string, 0, len(r.mono))
	for n := range r.mono {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BipartiteNames lists bipartite generators, sorted.
func (r *Registry) BipartiteNames() []string {
	out := make([]string, 0, len(r.bip))
	for n := range r.bip {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sgParams reads one spec's parameters for a factory. It keeps the
// first malformed value and the names read, so that finish can refuse
// a spec naming a parameter the generator does not have: a misspelt
// name must not generate silently with the default (and cache under a
// hash of its own).
type sgParams struct {
	gen  string // generator name, for messages
	vals map[string]string
	read []string
	err  error
}

// lookup returns the value of key, ok false when the spec leaves it
// unset (or empty) and the default applies.
func (p *sgParams) lookup(key string) (string, bool) {
	p.read = append(p.read, key)
	v, ok := p.vals[key]
	return v, ok && v != ""
}

func (p *sgParams) fail(key, v, want string) {
	if p.err == nil {
		p.err = fmt.Errorf("sgen: %s parameter %s=%q is not %s", p.gen, key, v, want)
	}
}

func (p *sgParams) float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, v, "a number")
		return def
	}
	return f
}

func (p *sgParams) bool(key string, def bool) bool {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(key, v, "a boolean")
		return def
	}
	return b
}

func (p *sgParams) int(key string, def int) int {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, v, "an integer")
		return def
	}
	return n
}

// finish reports the first malformed value, else the parameters the
// spec names that the factory never read.
func (p *sgParams) finish() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for _, k := range slices.Sorted(maps.Keys(p.vals)) {
		if !slices.Contains(p.read, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(p.read)
	return fmt.Errorf("sgen: %s has no parameter %s (it has: %s)", p.gen, strings.Join(unknown, ", "), strings.Join(p.read, ", "))
}

func registerBuiltinSGs(r *Registry) {
	must := func(err error) {
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	// mono and bip register a factory that reads its parameters through
	// an sgParams and is refused the ones it did not read.
	mono := func(name string, build func(p *sgParams, seed uint64) (Generator, error)) {
		must(r.RegisterMono(name, func(params map[string]string, seed uint64) (Generator, error) {
			p := &sgParams{gen: name, vals: params}
			g, err := build(p, seed)
			if perr := p.finish(); perr != nil {
				return nil, perr
			}
			return g, err
		}))
	}
	bip := func(name string, build func(p *sgParams, seed uint64) BipartiteGenerator) {
		must(r.RegisterBipartite(name, func(params map[string]string, seed uint64) (BipartiteGenerator, error) {
			p := &sgParams{gen: name, vals: params}
			g := build(p, seed)
			if err := p.finish(); err != nil {
				return nil, err
			}
			return g, nil
		}))
	}
	mono("rmat", func(p *sgParams, seed uint64) (Generator, error) {
		g := NewRMAT(seed)
		g.A = p.float("a", g.A)
		g.B = p.float("b", g.B)
		g.C = p.float("c", g.C)
		g.D = p.float("d", g.D)
		g.EdgeFactor = int64(p.int("edgeFactor", int(g.EdgeFactor)))
		g.Noise = p.float("noise", g.Noise)
		g.KeepDuplicates = p.bool("keepDuplicates", g.KeepDuplicates)
		return g, nil
	})
	mono("lfr", func(p *sgParams, seed uint64) (Generator, error) {
		g := NewLFR(seed)
		g.AvgDegree = p.float("avgDegree", g.AvgDegree)
		g.MaxDegree = p.int("maxDegree", g.MaxDegree)
		g.MinCommunity = p.int("minCommunity", g.MinCommunity)
		g.MaxCommunity = p.int("maxCommunity", g.MaxCommunity)
		g.Mu = p.float("mu", g.Mu)
		g.Tau1 = p.float("tau1", g.Tau1)
		g.Tau2 = p.float("tau2", g.Tau2)
		return g, nil
	})
	// BTER and Darwini rescale their degree histogram to the Run(n)
	// size, so the reference population just needs to be large enough
	// for resolution.
	mono("bter", func(p *sgParams, seed uint64) (Generator, error) {
		return NewBTERPowerLaw(1<<20, p.int("dmin", 2), p.int("dmax", 50), p.float("gamma", 2.0), seed)
	})
	mono("darwini", func(p *sgParams, seed uint64) (Generator, error) {
		spread := p.float("spread", 0.5)
		g, err := NewDarwiniPowerLaw(1<<20, p.int("dmin", 2), p.int("dmax", 50), p.float("gamma", 2.0), seed)
		if err != nil {
			return nil, err
		}
		g.CCSpread = spread
		return g, nil
	})
	mono("cascade", func(p *sgParams, seed uint64) (Generator, error) {
		g := cascade.NewGenerator(seed)
		g.TreeSizeMin = p.int("minSize", g.TreeSizeMin)
		g.TreeSizeMax = p.int("maxSize", g.TreeSizeMax)
		g.Gamma = p.float("gamma", g.Gamma)
		g.PreferRecent = p.float("preferRecent", g.PreferRecent)
		return &cascade.SG{Gen: g}, nil
	})
	mono("erdos-renyi", func(p *sgParams, seed uint64) (Generator, error) {
		return NewErdosRenyi(p.float("edgesPerNode", 8), seed), nil
	})
	mono("barabasi-albert", func(p *sgParams, seed uint64) (Generator, error) {
		return NewBarabasiAlbert(p.int("m", 4), seed), nil
	})
	mono("watts-strogatz", func(p *sgParams, seed uint64) (Generator, error) {
		return NewWattsStrogatz(p.int("k", 4), p.float("beta", 0.1), seed), nil
	})
	bip("powerlaw-out", func(p *sgParams, seed uint64) BipartiteGenerator {
		return NewPowerLawOut(p.int("min", 1), p.int("max", 20), p.float("gamma", 2.0), seed)
	})
	bip("zipf-attachment", func(p *sgParams, seed uint64) BipartiteGenerator {
		return NewZipfAttachment(p.int("min", 1), p.int("max", 20), p.float("gamma", 2.0), p.float("theta", 1.0), seed)
	})
	bip("one-to-one", func(p *sgParams, seed uint64) BipartiteGenerator {
		return &OneToOne{Seed: seed}
	})
	bip("uniform-bipartite", func(p *sgParams, seed uint64) BipartiteGenerator {
		return &UniformBipartite{AvgOut: p.float("avgOut", 3), Seed: seed}
	})
}
