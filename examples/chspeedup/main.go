// Chspeedup demonstrates the §II-B theme of routing-engine optimisations:
// it preprocesses the Melbourne network into a customizable contraction
// hierarchy, customizes it for the base metric, and times the tree pairs
// the plateau planners consume — a PHAST forward+backward sweep pair
// against a Dijkstra tree pair over the same query batch — checking every
// node's distance against Dijkstra. It then times what one /api/routes
// miss sweeps — the public and the traffic tree pairs — as two twin passes
// (each root's two trees in one pass over the shared sweep topology)
// against four single sweeps, checking the trees bit for bit, and
// measures how small a fraction of the graph an elliptically pruned tree
// explores. That pruned trees "still yield the same choice routes" (the
// paper's claim) is pinned by core's TestEllipticTreesYieldSameChoiceRoutes.
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

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/traffic"
)

func main() {
	g, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		log.Fatal(err)
	}
	w := g.CopyWeights()
	fmt.Printf("Melbourne network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// 1. Metric-independent preprocessing on the flow order the commands
	// serve with, then customization for the base metric (the step every
	// weight publish repeats).
	start := time.Now()
	pre := cch.PreprocessWith(g, cch.OrderConfig{Kind: cch.OrderFlow})
	fmt.Printf("CCH preprocessing: %.0f ms, %d arc pairs, %d triangles\n",
		time.Since(start).Seconds()*1000, pre.NumPairs(), pre.NumTriangles())
	start = time.Now()
	h := pre.Customize(w)
	fmt.Printf("CCH customization: %.0f ms, %d arc pairs, %d arcs\n",
		time.Since(start).Seconds()*1000, pre.NumPairs(), h.NumArcs())

	// 2. Exactness + speedup of complete tree pairs over a query batch:
	// the forward tree from s and the backward tree into t that every
	// /api/routes request builds.
	tb := h.NewTreeBuilder()
	chWS, dijWS := sp.NewWorkspace(), sp.NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	const numQueries = 300
	var chTime, dijTime time.Duration
	for q := 0; q < numQueries; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		start = time.Now()
		chFwd := tb.BuildTreeInto(chWS, s, sp.Forward)
		chBwd := tb.BuildTreeInto(chWS, t, sp.Backward)
		chTime += time.Since(start)
		start = time.Now()
		dijFwd := sp.BuildTreeInto(dijWS, g, w, s, sp.Forward)
		dijBwd := sp.BuildTreeInto(dijWS, g, w, t, sp.Backward)
		dijTime += time.Since(start)
		for v := 0; v < g.NumNodes(); v++ {
			for _, pair := range [][2]float64{{chFwd.Dist[v], dijFwd.Dist[v]}, {chBwd.Dist[v], dijBwd.Dist[v]}} {
				c, d := pair[0], pair[1]
				if math.Abs(c-d) > 1e-6 && !(math.IsInf(c, 1) && math.IsInf(d, 1)) {
					log.Fatalf("query %d (%d->%d) node %d: CH tree %f != Dijkstra tree %f", q, s, t, v, c, d)
				}
			}
		}
	}
	fmt.Printf("%d tree pairs: Dijkstra %.0f ms, CH sweeps %.0f ms -> %.1fx speedup, every node's distance exact\n",
		numQueries, dijTime.Seconds()*1000, chTime.Seconds()*1000,
		dijTime.Seconds()/chTime.Seconds())

	// 3. One /api/routes miss sweeps four trees: the public pair and the
	// traffic pair, from the same s and t. Two basic customizations of one
	// preprocessing share a sweep topology, so each root's two trees come
	// out of one twin pass.
	tw := traffic.NewSequence(g, traffic.DefaultModel(2022*2654435761+1), 0).WeightsAt(0)
	ttb := pre.Customize(tw).NewTreeBuilder()
	single := [2]*sp.Workspace{sp.NewWorkspace(), sp.NewWorkspace()}
	twin := [2]*sp.Workspace{sp.NewWorkspace(), sp.NewWorkspace()}
	var singleTime, twinTime time.Duration
	for q := 0; q < numQueries; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		start = time.Now()
		tb.BuildTreeInto(single[0], s, sp.Forward)
		tb.BuildTreeInto(single[0], t, sp.Backward)
		ttb.BuildTreeInto(single[1], s, sp.Forward)
		ttb.BuildTreeInto(single[1], t, sp.Backward)
		singleTime += time.Since(start)
		start = time.Now()
		ch.BuildTwinTreesInto(twin[0], tb, twin[1], ttb, s, sp.Forward)
		ch.BuildTwinTreesInto(twin[0], tb, twin[1], ttb, t, sp.Backward)
		twinTime += time.Since(start)
		for i := range twin {
			for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
				want, _ := single[i].TreeSlot(dir)
				got, _ := twin[i].TreeSlot(dir)
				for v := range want.Dist {
					if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
						log.Fatalf("query %d (%d->%d) node %d: twin tree differs from its single sweep", q, s, t, v)
					}
				}
			}
		}
	}
	fmt.Printf("%d public+traffic tree quads: four single sweeps %.0f ms, two twin passes %.0f ms -> %.1fx, bit-identical\n",
		numQueries, singleTime.Seconds()*1000, twinTime.Seconds()*1000,
		singleTime.Seconds()/twinTime.Seconds())

	// 4. Elliptically pruned trees: nodes that can lie on a route within
	// the upper bound of the fastest time, a fraction of the graph.
	scale := sp.MinSecondsPerMeter(g, w)
	checked, reachedSum := 0, 0
	for i := 0; i < 25; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		_, fastest := sp.ShortestPath(g, w, s, t)
		if s == t || math.IsInf(fastest, 1) {
			continue
		}
		fwd := sp.BuildPrunedTree(g, w, s, sp.Forward, t, core.DefaultUpperBound*fastest, scale)
		if math.Abs(fwd.Dist[t]-fastest) > 1e-6 {
			log.Fatalf("pruned tree %d->%d: %f != fastest %f", s, t, fwd.Dist[t], fastest)
		}
		checked++
		reachedSum += sp.CountReached(fwd)
	}
	fmt.Printf("Pruned forward trees (%d queries, UB %.1f): mean exploration %0.f%% of the graph, target distances exact\n",
		checked, core.DefaultUpperBound, 100*float64(reachedSum)/float64(checked*g.NumNodes()))
}
