// Recommender: a bipartite user–product benchmark dataset with a
// correlated interaction graph — the "application specific benchmark"
// use case from the paper's introduction. User segments are matched to
// product categories through the bipartite SBM-Part variation, and
// edge ratings follow the J-shaped distribution of real review data.
//
//	go run ./examples/recommender
package main

import (
	"fmt"
	"log"

	"datasynth/internal/core"
	"datasynth/internal/dsl"
)

const schemaText = `
graph recommender {
  seed = 2026

  node User {
    count = 20000
    property segment : string = categorical(values="gamer|maker|chef|reader", weights="4|3|2|3")
    property signupDate : date = uniform-date(from="2018-01-01", to="2024-12-31")
  }

  node Product {
    count = 5000
    property category : string = categorical(values="games|tools|kitchen|books", weights="4|3|2|3")
    property price : float = uniform-float(lo=1, hi=200)
  }

  edge rates : User *-* Product {
    structure = zipf-attachment(min=1, max=30, gamma=1.8, theta=1.1)
    correlate tail.segment with head.category homophily 0.75
    property rating : int = rating(lo=1, hi=5)
    property date : date = uniform-date(from="2018-01-01", to="2025-12-31")
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

	rates := dataset.Edges["rates"]
	segment := dataset.NodeProps["User"][0]
	category := dataset.NodeProps["Product"][0]

	// Segment-category alignment: the DSL pairs values by index
	// (gamer↔games, maker↔tools, chef↔kitchen, reader↔books).
	affinity := map[string]string{"gamer": "games", "maker": "tools", "chef": "kitchen", "reader": "books"}
	aligned := 0
	for e, t := range rates.Tail {
		if affinity[segment.String(int64(t))] == category.String(int64(rates.Head[e])) {
			aligned++
		}
	}
	fmt.Printf("in-segment ratings: %.1f%% (target homophily 75%%, random ~26%%)\n",
		100*float64(aligned)/float64(rates.Len()))

	// Popularity skew: Zipf attachment should concentrate ratings on few
	// blockbuster products.
	inDeg := make(map[uint32]int64)
	for _, h := range rates.Head {
		inDeg[h]++
	}
	var top int64
	for _, d := range inDeg {
		if d > top {
			top = d
		}
	}
	fmt.Printf("most-rated product: %d ratings (mean %.1f)\n",
		top, float64(rates.Len())/float64(dataset.NodeCounts["Product"]))

	// Rating distribution: J-shaped (5s dominate, 1s second).
	rating := dataset.EdgeProps["rates"][0]
	hist := map[int64]int64{}
	for e := int64(0); e < rates.Len(); e++ {
		hist[rating.Int(e)]++
	}
	fmt.Printf("rating histogram 1..5: %d %d %d %d %d\n",
		hist[1], hist[2], hist[3], hist[4], hist[5])

	if err := dataset.WriteDir("recommender-out"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("CSV written to ./recommender-out")
}
