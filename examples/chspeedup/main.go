// Chspeedup demonstrates the §II-B theme of routing-engine optimisations:
// it preprocesses the Melbourne network into a contraction hierarchy,
// verifies exactness against plain Dijkstra, measures the point-to-point
// query speedup, and shows that the elliptically pruned plateau planner
// returns exactly the same alternative routes as the full-tree planner
// while exploring a fraction of the graph — the paper's claim that pruned
// trees "still yield the same choice routes".
//
// Run with:
//
//	go run ./examples/chspeedup
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

func main() {
	g, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		log.Fatal(err)
	}
	w := g.CopyWeights()
	fmt.Printf("Melbourne network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// 1. Contraction hierarchy preprocessing.
	start := time.Now()
	h := ch.Build(g, w)
	fmt.Printf("CH preprocessing: %.1fs, %d shortcuts added (%.1f%% of edges)\n",
		time.Since(start).Seconds(), h.NumShortcuts(),
		100*float64(h.NumShortcuts())/float64(g.NumEdges()))

	// 2. Exactness + speedup over a query batch.
	rng := rand.New(rand.NewSource(1))
	const numQueries = 300
	type query struct{ s, t graph.NodeID }
	queries := make([]query, numQueries)
	for i := range queries {
		queries[i] = query{
			graph.NodeID(rng.Intn(g.NumNodes())),
			graph.NodeID(rng.Intn(g.NumNodes())),
		}
	}
	start = time.Now()
	chDists := make([]float64, numQueries)
	for i, q := range queries {
		chDists[i] = h.Dist(q.s, q.t)
	}
	chTime := time.Since(start)
	start = time.Now()
	for i, q := range queries {
		_, d := sp.ShortestPath(g, w, q.s, q.t)
		if math.Abs(d-chDists[i]) > 1e-6 && !(math.IsInf(d, 1) && math.IsInf(chDists[i], 1)) {
			log.Fatalf("query %d: CH %f != Dijkstra %f", i, chDists[i], d)
		}
	}
	dijTime := time.Since(start)
	fmt.Printf("%d queries: Dijkstra %.0f ms, CH %.0f ms -> %.1fx speedup, all distances exact\n",
		numQueries, dijTime.Seconds()*1000, chTime.Seconds()*1000,
		dijTime.Seconds()/chTime.Seconds())

	// 3. Pruned-tree plateaus: same choice routes, far less exploration.
	full := core.NewPlateaus(g, core.Options{})
	pruned := core.NewPrunedPlateaus(g, core.Options{})
	scale := sp.MinSecondsPerMeter(g, w)
	same, checked, reachedSum := 0, 0, 0
	for i := 0; i < 25; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == t {
			continue
		}
		a, err1 := full.Alternatives(s, t)
		b, err2 := pruned.Alternatives(s, t)
		if err1 != nil || err2 != nil {
			continue
		}
		checked++
		// The pruned planner's forward tree: nodes that can lie on a route
		// within the upper bound of the fastest time a[0].TimeS.
		fwd := sp.BuildPrunedTree(g, w, s, sp.Forward, t, core.DefaultUpperBound*a[0].TimeS, scale)
		reachedSum += sp.CountReached(fwd)
		identical := len(a) == len(b)
		if identical {
			for j := range a {
				if !path.Equal(a[j], b[j]) {
					identical = false
					break
				}
			}
		}
		if identical {
			same++
		}
	}
	fmt.Printf("Pruned-tree plateaus: identical route sets on %d/%d queries;\n", same, checked)
	fmt.Printf("  mean forward-tree exploration %0.f%% of the graph (full trees explore 100%%)\n",
		100*float64(reachedSum)/float64(checked*g.NumNodes()))
}
