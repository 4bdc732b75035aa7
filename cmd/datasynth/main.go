// Command datasynth generates a property graph from a DSL schema:
//
//	datasynth -schema social.dsl -out ./dataset
//	datasynth -schema social.dsl -format columnar   # binary bulk-load files
//	datasynth -schema social.dsl -validate          # check the schema, generate nothing
//	datasynth -example                              # print a starter schema
//
// -validate is the one static check of a schema. It runs the
// validation datasynthd runs at admission and at scenario registration,
// and prints the verdict, the canonical hash the service caches the
// dataset under, the numbered task plan of the dependency analysis, and
// the canonical text PUT /v1/scenarios would register.
//
// The output directory receives one file per node type and per edge
// type. -format selects the encoding: csv (default, the layout bulk
// loaders of property-graph databases expect), jsonl (one JSON object
// per row), or columnar (binary typed column blocks for fast bulk
// loads). Tables are written concurrently (GOMAXPROCS is the only
// parallelism setting, and it never changes a byte) and the directory
// commits atomically — a failed export leaves no partial files. With
// -timings the report covers generation AND export, so the printed
// critical path is the true end-to-end pipeline floor.
package main

import (
	"flag"
	"fmt"
	"os"

	"datasynth/internal/core"
	"datasynth/internal/depgraph"
	"datasynth/internal/dsl"
	"datasynth/internal/table"
)

// exampleSchema is the paper's Figure 1 running example.
const exampleSchema = `# DataSynth schema — the paper's running example (Figure 1).
graph social {
  seed = 42

  node Person {
    count = 10000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property interest : string = zipf(dict="topics", theta="1.1")
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }

  node Message {
    property topic : string = categorical(dict="topics")
    property text  : string = text(min=3, max=12)
  }

  edge knows : Person *-* Person {
    structure = lfr(avgDegree=20, maxDegree=50, mu=0.1)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate)
  }

  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=20, gamma=2.0)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
}
`

func main() {
	schemaPath := flag.String("schema", "", "path to the DSL schema file")
	out := flag.String("out", "dataset", "output directory for the exported files")
	format := flag.String("format", "csv", "export format: csv, jsonl, columnar")
	validate := flag.Bool("validate", false, "validate the schema, print its canonical hash, task plan and canonical text, and exit without generating")
	example := flag.Bool("example", false, "print an example schema and exit")
	verbose := flag.Bool("v", false, "log task progress")
	timings := flag.Bool("timings", false, "print the per-task timing report and end-to-end critical path (generation + export)")
	flag.Parse()

	if *example {
		fmt.Print(exampleSchema)
		return
	}
	if *schemaPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	s, err := dsl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if *validate {
		if err := core.ValidateSchema(s); err != nil {
			fatal(err)
		}
		plan, err := depgraph.Analyze(s)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("schema %s: valid (%d node types, %d edge types, seed %d)\n",
			s.Name, len(s.Nodes), len(s.Edges), s.Seed)
		fmt.Printf("canonical sha256: %s\n", core.CanonicalHash(s))
		fmt.Printf("plan for graph %q (%d tasks):\n", s.Name, len(plan.Tasks))
		for i, t := range plan.Tasks {
			fmt.Printf("%3d. %s\n", i+1, t.ID())
		}
		fmt.Printf("canonical text:\n\n%s", core.CanonicalSchema(s))
		return
	}
	exportFormat, err := table.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	eng := core.New(s)
	eng.ExportFormat = exportFormat
	if *verbose {
		eng.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "datasynth: "+format+"\n", args...)
		}
	}
	d, err := eng.Generate()
	if err != nil {
		fatal(err)
	}
	if err := eng.Export(d, *out); err != nil {
		fatal(err)
	}
	if *timings {
		fmt.Fprint(os.Stderr, eng.Report().String())
	}
	fmt.Printf("generated %s into %s (%s)\n", d.Stats(), *out, exportFormat)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datasynth:", err)
	os.Exit(1)
}
