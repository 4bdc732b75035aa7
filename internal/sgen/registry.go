package sgen

import (
	"fmt"
	"maps"
	"slices"

	"datasynth/internal/schema"
)

// Registry resolves DSL structure-generator specs into concrete
// generators. Monopartite and bipartite generators live in separate
// namespaces because edge cardinality decides which is legal. The
// built-ins are two static tables, so the registry has no state.
type Registry struct{}

// NewRegistry returns the registry of every built-in SG.
func NewRegistry() *Registry { return &Registry{} }

// HasMono reports whether name is a monopartite generator.
func (*Registry) HasMono(name string) bool { _, ok := monoBuiltins[name]; return ok }

// BuildMono resolves a monopartite generator spec. The generator it
// returns has passed Validate.
func (r *Registry) BuildMono(name string, params map[string]string, seed uint64) (Generator, error) {
	f, ok := monoBuiltins[name]
	if !ok {
		return nil, fmt.Errorf("sgen: unknown structure generator %q (have: %v)", name, r.MonoNames())
	}
	p := schema.NewParams(name, params)
	g, err := f(p, seed)
	if err == nil {
		err = g.Validate()
	}
	if err = paramsErr(p, err); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildBipartite resolves a bipartite generator spec. The generator it
// returns has passed Validate.
func (r *Registry) BuildBipartite(name string, params map[string]string, seed uint64) (BipartiteGenerator, error) {
	f, ok := bipBuiltins[name]
	if !ok {
		return nil, fmt.Errorf("sgen: unknown bipartite structure generator %q (have: %v)", name, r.BipartiteNames())
	}
	p := schema.NewParams(name, params)
	g := f(p, seed)
	if err := paramsErr(p, g.Validate()); err != nil {
		return nil, err
	}
	return g, nil
}

// paramsErr is the error of a generator built from p that failed with
// err: a malformed or unread parameter comes before the factory's or
// Validate's own error.
func paramsErr(p *schema.Params, err error) error {
	if perr := p.Err(); perr != nil {
		return fmt.Errorf("sgen: %w", perr)
	}
	return err
}

// MonoNames lists monopartite generators, sorted.
func (*Registry) MonoNames() []string { return slices.Sorted(maps.Keys(monoBuiltins)) }

// BipartiteNames lists bipartite generators, sorted.
func (*Registry) BipartiteNames() []string { return slices.Sorted(maps.Keys(bipBuiltins)) }

// monoBuiltins are the monopartite generators by DSL name. Each factory
// reads its parameters through p, which refuses the ones it did not
// read.
var monoBuiltins = map[string]func(p *schema.Params, seed uint64) (Generator, error){
	"rmat": func(p *schema.Params, seed uint64) (Generator, error) {
		g := NewRMAT(seed)
		g.A = p.Float("a", g.A)
		g.B = p.Float("b", g.B)
		g.C = p.Float("c", g.C)
		g.D = p.Float("d", g.D)
		g.EdgeFactor = int64(p.Int("edgeFactor", int(g.EdgeFactor)))
		g.Noise = p.Float("noise", g.Noise)
		g.KeepDuplicates = p.Bool("keepDuplicates", g.KeepDuplicates)
		return g, nil
	},
	"lfr": func(p *schema.Params, seed uint64) (Generator, error) {
		g := NewLFR(seed)
		g.AvgDegree = p.Float("avgDegree", g.AvgDegree)
		g.MaxDegree = p.Int("maxDegree", g.MaxDegree)
		g.MinCommunity = p.Int("minCommunity", g.MinCommunity)
		g.MaxCommunity = p.Int("maxCommunity", g.MaxCommunity)
		g.Mu = p.Float("mu", g.Mu)
		g.Tau1 = p.Float("tau1", g.Tau1)
		g.Tau2 = p.Float("tau2", g.Tau2)
		return g, nil
	},
	// BTER and Darwini rescale their degree histogram to the Run(n)
	// size, so the reference population just needs to be large enough
	// for resolution.
	"bter": func(p *schema.Params, seed uint64) (Generator, error) {
		return NewBTERPowerLaw(1<<20, p.Int("dmin", 2), p.Int("dmax", 50), p.Float("gamma", 2.0), seed)
	},
	"darwini": func(p *schema.Params, seed uint64) (Generator, error) {
		spread := p.Float("spread", 0.5)
		g, err := NewDarwiniPowerLaw(1<<20, p.Int("dmin", 2), p.Int("dmax", 50), p.Float("gamma", 2.0), seed)
		if err != nil {
			return nil, err
		}
		g.CCSpread = spread
		return g, nil
	},
	"cascade": func(p *schema.Params, seed uint64) (Generator, error) {
		g := NewCascade(seed)
		g.TreeSizeMin = p.Int("minSize", g.TreeSizeMin)
		g.TreeSizeMax = p.Int("maxSize", g.TreeSizeMax)
		g.Gamma = p.Float("gamma", g.Gamma)
		g.PreferRecent = p.Float("preferRecent", g.PreferRecent)
		return g, nil
	},
	"erdos-renyi": func(p *schema.Params, seed uint64) (Generator, error) {
		return NewErdosRenyi(p.Float("edgesPerNode", 8), seed), nil
	},
	"barabasi-albert": func(p *schema.Params, seed uint64) (Generator, error) {
		return NewBarabasiAlbert(p.Int("m", 4), seed), nil
	},
	"watts-strogatz": func(p *schema.Params, seed uint64) (Generator, error) {
		return NewWattsStrogatz(p.Int("k", 4), p.Float("beta", 0.1), seed), nil
	},
}

// bipBuiltins are the bipartite generators by DSL name.
var bipBuiltins = map[string]func(p *schema.Params, seed uint64) BipartiteGenerator{
	"powerlaw-out": func(p *schema.Params, seed uint64) BipartiteGenerator {
		return NewPowerLawOut(p.Int("min", 1), p.Int("max", 20), p.Float("gamma", 2.0), seed)
	},
	"zipf-attachment": func(p *schema.Params, seed uint64) BipartiteGenerator {
		return NewZipfAttachment(p.Int("min", 1), p.Int("max", 20), p.Float("gamma", 2.0), p.Float("theta", 1.0), seed)
	},
	"one-to-one": func(p *schema.Params, seed uint64) BipartiteGenerator {
		return &OneToOne{Seed: seed}
	},
	"uniform-bipartite": func(p *schema.Params, seed uint64) BipartiteGenerator {
		return &UniformBipartite{AvgOut: p.Float("avgOut", 3), Seed: seed}
	},
}
