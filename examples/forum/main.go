// Forum: message cascades — the paper's future-work tree structures.
// The cascade(...) structure generator (sgen.Cascade) grows the reply
// trees as a replyOf edge table, one edge per reply from child to
// parent. The example rebuilds each message's parent from that table
// and pushes values down the trees in its own forward loops: creation
// dates, so every reply is strictly later than its parent, and thread
// topics, inherited with an occasional drift. That is the "information
// propagates through the cascade" pattern the paper sketches for
// social-network message threads; it takes one sweep because a parent
// always has a smaller id than its replies.
//
//	go run ./examples/forum
package main

import (
	"fmt"
	"log"

	"datasynth/internal/sgen"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

func main() {
	gen := sgen.NewCascade(2026)
	gen.TreeSizeMin, gen.TreeSizeMax = 1, 200
	gen.Gamma = 1.8
	gen.PreferRecent = 0.35

	const n = 50000
	et, err := gen.Run(n)
	if err != nil {
		log.Fatal(err)
	}
	parent := parents(et, n)

	// Each tree is a contiguous id range starting at its root, and a
	// reply sits one level below its parent.
	depth := make([]int64, n)
	var cascades, largest, size, deepest int64
	for v := range parent {
		if parent[v] == -1 {
			cascades++
			size = 0
		} else {
			depth[v] = depth[parent[v]] + 1
			deepest = max(deepest, depth[v])
		}
		size++
		largest = max(largest, size)
	}
	fmt.Printf("generated %d messages in %d cascades (largest %d, deepest %d levels)\n",
		n, cascades, largest, deepest)

	// Dates strictly increase along every root-to-leaf path.
	from := table.MustParseDate("2023-01-01")
	to := table.MustParseDate("2024-12-31")
	dates := replyDates(parent, from, to, 14, 7)
	violations := 0
	for v, p := range parent {
		if p != -1 && dates[v] <= dates[p] {
			violations++
		}
	}
	fmt.Printf("date monotonicity violations: %d / %d replies\n", violations, n-cascades)

	// Thread topics inherit from the root with a 5% drift per level.
	topics := []string{"go", "databases", "graphs", "benchmarks"}
	topicOf := make([]string, n)
	drifted := 0
	for v, p := range parent {
		switch {
		case p == -1:
			topicOf[v] = topics[v%len(topics)]
		case v%20 == 0: // occasional topic drift
			topicOf[v] = topics[v%len(topics)]
		default:
			topicOf[v] = topicOf[p]
		}
		if p != -1 && topicOf[v] != topicOf[p] {
			drifted++
		}
	}
	fmt.Printf("replies that drifted off-topic: %d (%.1f%%)\n",
		drifted, 100*float64(drifted)/float64(n))

	fmt.Printf("replyOf edges: %d (one per non-root message)\n", et.Len())
	sample := et.Tail[0]
	fmt.Printf("example: message %d replies to %d (%s -> %s)\n",
		sample, et.Head[0], table.FormatDate(dates[et.Head[0]]), table.FormatDate(dates[sample]))
}

// parents rebuilds each message's parent from the replyOf table (tail =
// reply, head = the message it answers); a root has none, -1.
func parents(et *table.EdgeTable, n int64) []int64 {
	parent := make([]int64, n)
	for v := range parent {
		parent[v] = -1
	}
	for i, child := range et.Tail {
		parent[child] = int64(et.Head[i])
	}
	return parent
}

// replyDates draws each root's date from [from, to] and lands every
// reply 1..maxLagDays after its parent, in one forward sweep.
func replyDates(parent []int64, from, to, maxLagDays int64, seed uint64) []int64 {
	s := xrand.NewStream(seed).DeriveStream("reply-dates")
	dates := make([]int64, len(parent))
	for v, p := range parent {
		if p == -1 {
			dates[v] = from + s.Intn(int64(v), to-from+1)
		} else {
			dates[v] = dates[p] + 1 + s.Intn(int64(v)+1<<40, maxLagDays)
		}
	}
	return dates
}
