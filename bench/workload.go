package main

import (
	"embed"
	"fmt"
	"strconv"
	"strings"
)

//go:embed schemas/*.dsl.tmpl
var schemaFS embed.FS

// kind is the path a workload drives.
type kind int

const (
	// kindCLI: one `datasynth -schema -out -format` child per job.
	kindCLI kind = iota
	// kindSvcCold: every job submits a fresh seed to datasynthd, so
	// every submit is a cache miss.
	kindSvcCold
	// kindSvcWarm: jobs resubmit a small primed working set, so every
	// submit is a cache hit.
	kindSvcWarm
)

// workload is one set of inputs the benchmark runs. The schema the
// program sees is schemaText(seed); nothing else about the workload
// reaches it.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why      string
	kind     kind
	template string
	format   string
	// params are the template's size placeholders, per -size.
	params map[string]map[string]int64
	// warmups is the number of untimed-for-metrics jobs each set-up
	// runs before the measured window (svc-warm: after priming).
	warmups int
	// workingSet is the number of distinct seeds a warm workload
	// resubmits round-robin.
	workingSet int
	// cacheMaxBytes is the daemon's -cachemaxbytes, per -size; 0 for
	// CLI workloads. svc-cold sizes it to two entries so the third
	// warm-up job is the first LRU eviction and the measured window is
	// past that point.
	cacheMaxBytes map[string]int64
}

var workloads = []workload{
	{
		name:     "cli-social-csv",
		why:      "Figure-1 social schema at 300k Persons to CSV through the CLI: pgen text fill, LFR, first-pass match and CSV encode all carry weight; RMAT, refinement, bipartite and the service do nothing.",
		kind:     kindCLI,
		template: "social",
		format:   "csv",
		params: map[string]map[string]int64{
			"full":  {"PERSONS": 300000},
			"small": {"PERSONS": 2000},
		},
		warmups: 1,
	},
	{
		name:     "cli-rmat-columnar",
		why:      "RMAT scale-18, edge factor 16, homophily with two refinement passes, to columnar: match and RMAT dominate, export and pgen are a few percent, so encoder and pgen changes must show no change here.",
		kind:     kindCLI,
		template: "web",
		format:   "columnar",
		params: map[string]map[string]int64{
			"full":  {"PAGES": 262144},
			"small": {"PAGES": 4096},
		},
		warmups: 1,
	},
	{
		name:     "svc-cold-jsonl",
		why:      "Recommender schema, fresh seed per submit to datasynthd, one connection: admission, bipartite match, JSONL encode, hash and cache commit with an LRU eviction on every store, then serve.",
		kind:     kindSvcCold,
		template: "recommender",
		format:   "jsonl",
		params: map[string]map[string]int64{
			"full":  {"USERS": 300000, "PRODUCTS": 30000},
			"small": {"USERS": 4000, "PRODUCTS": 400},
		},
		warmups: 3,
		cacheMaxBytes: map[string]int64{
			"full":  256 << 20,
			"small": 3 << 20,
		},
	},
	{
		name:     "svc-warm-csv",
		why:      "Social schema at 100k Persons under four primed seeds, resubmitted round-robin over one connection: parse, hash, cache lookup and streaming only, so a generator speed-up must show no change here.",
		kind:     kindSvcWarm,
		template: "social",
		format:   "csv",
		params: map[string]map[string]int64{
			"full":  {"PERSONS": 100000},
			"small": {"PERSONS": 2000},
		},
		warmups:    10,
		workingSet: 4,
		cacheMaxBytes: map[string]int64{
			"full":  1 << 30,
			"small": 1 << 30,
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// schemaText renders the workload's template for one schema seed.
func (w workload) schemaText(size string, schemaSeed uint64) (string, error) {
	params, ok := w.params[size]
	if !ok {
		return "", fmt.Errorf("workload %s has no size %q", w.name, size)
	}
	raw, err := schemaFS.ReadFile("schemas/" + w.template + ".dsl.tmpl")
	if err != nil {
		return "", err
	}
	pairs := []string{"$SEED", strconv.FormatUint(schemaSeed, 10)}
	for k, v := range params {
		pairs = append(pairs, "$"+k, strconv.FormatInt(v, 10))
	}
	return strings.NewReplacer(pairs...).Replace(string(raw)), nil
}

// jobSeed is the schema seed of job i. CLI workloads rerun one schema
// (the run's -seed). Cold service jobs each get their own seed so no
// submit can hit the cache; warm ones cycle through the working set.
func (w workload) jobSeed(runSeed uint64, i int) uint64 {
	switch w.kind {
	case kindSvcCold:
		return runSeed*1000 + uint64(i)
	case kindSvcWarm:
		return runSeed*1000 + uint64(i%w.workingSet)
	default:
		return runSeed
	}
}
