// Quickstart: build a schema programmatically, generate a small
// property graph, and inspect the result — the five-minute tour of the
// DataSynth API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"datasynth/internal/core"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

func main() {
	// A two-type schema: Users with a correlated friendship graph.
	s := &schema.Schema{
		Name: "quickstart",
		Seed: 7,
		Nodes: []schema.NodeType{{
			Name:  "User",
			Count: 2000,
			Properties: []schema.Property{
				{
					Name: "city", Kind: table.KindString,
					Generator: schema.GeneratorSpec{
						Name:   "categorical",
						Params: map[string]string{"values": "tokyo|paris|lima|cairo", "weights": "4|3|2|1"},
					},
				},
				{
					Name: "karma", Kind: table.KindInt,
					Generator: schema.GeneratorSpec{
						Name:   "uniform-int",
						Params: map[string]string{"lo": "0", "hi": "1000"},
					},
				},
			},
		}},
		Edges: []schema.EdgeType{{
			Name: "follows", Tail: "User", Head: "User",
			Cardinality: schema.ManyToMany,
			Structure: schema.GeneratorSpec{
				Name:   "lfr",
				Params: map[string]string{"avgDegree": "12", "maxDegree": "40"},
			},
			// Users mostly follow users from their own city.
			Correlation: &schema.Correlation{Property: "city", Homophily: 0.7},
		}},
	}

	dataset, err := core.New(s).Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated:", dataset.Stats())

	// Inspect: how often do edges stay within a city?
	follows := dataset.Edges["follows"]
	city := dataset.NodeProps["User"][0]
	same := 0
	for e, t := range follows.Tail {
		if city.String(int64(t)) == city.String(int64(follows.Head[e])) {
			same++
		}
	}
	fmt.Printf("same-city follows: %.1f%% (random matching would give ~30%%)\n",
		100*float64(same)/float64(follows.Len()))

	// Every value is regenerable in place: row 42 is a pure function of
	// (id, seed), so any worker can recompute it without coordination.
	fmt.Printf("user 42: city=%s karma=%d\n", city.String(42), dataset.NodeProps["User"][1].Int(42))

	// Export as CSV for a bulk loader.
	if err := dataset.WriteDir("quickstart-out"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CSV written to ./quickstart-out")
}
