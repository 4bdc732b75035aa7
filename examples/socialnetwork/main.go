// Social network: the paper's Figure 1 running example, end to end —
// Person/Message nodes, a homophilous knows graph, a power-law creates
// edge sizing the Message population, and the date constraint
// knows.creationDate > max(endpoint creationDates).
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
	"datasynth/internal/graph"
)

const schemaText = `
graph social {
  seed = 42

  node Person {
    count = 20000
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
	s, err := dsl.Parse(schemaText)
	if err != nil {
		log.Fatal(err)
	}
	dataset, err := core.New(s).Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated:", dataset.Stats())
	fmt.Printf("Messages inferred from creates: %d instances\n", dataset.NodeCounts["Message"])

	// Requirement check 1 — property-structure correlation: connected
	// Persons share a country far above the independence baseline.
	knows := dataset.Edges["knows"]
	country := dataset.NodeProps["Person"][0]
	same := 0
	for e, t := range knows.Tail {
		if country.String(int64(t)) == country.String(int64(knows.Head[e])) {
			same++
		}
	}
	fmt.Printf("same-country knows edges: %.1f%% (independence baseline ~7%%)\n",
		100*float64(same)/float64(knows.Len()))

	// Requirement check 2 — structural: the knows graph keeps LFR's
	// shape through the matching step.
	g, err := graph.FromEdgeTable(knows, dataset.NodeCounts["Person"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knows structure: avg degree %.1f, max degree %d, clustering %.3f\n",
		g.AvgDegree(), g.MaxDegree(), g.AvgClustering(2000, 1))

	// Requirement check 3 — value constraint: every knows.creationDate
	// exceeds both endpoint creationDates.
	pDate := dataset.NodeProps["Person"][4]
	kDate := dataset.EdgeProps["knows"][0]
	violations := 0
	for e, t := range knows.Tail {
		d := kDate.Int(int64(e))
		if d <= pDate.Int(int64(t)) || d <= pDate.Int(int64(knows.Head[e])) {
			violations++
		}
	}
	fmt.Printf("date-constraint violations: %d / %d\n", violations, knows.Len())

	// Requirement check 4 — conditional properties: names match the
	// (country, sex) dictionaries.
	name := dataset.NodeProps["Person"][2]
	sex := dataset.NodeProps["Person"][1]
	fmt.Printf("sample row: %s (%s, %s) from %s\n",
		name.String(0), sex.String(0), dataset.NodeProps["Person"][3].String(0), country.String(0))

	if err := dataset.WriteDir("social-out"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CSV written to ./social-out")
}
