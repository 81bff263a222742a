package cch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
)

// twoComponentCity builds two disjoint grid components — queries across
// the gap are unreachable in both directions.
func twoComponentCity(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(2*rows*cols, 0)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(comp, r, c int) graph.NodeID { return graph.NodeID(comp*rows*cols + r*cols + c) }
	for comp := 0; comp < 2; comp++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				// 20km east keeps the components geometrically separate too.
				b.AddNode(geo.Offset(o, float64(r)*150, float64(comp)*20000+float64(c)*150))
			}
		}
	}
	for comp := 0; comp < 2; comp++ {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					b.AddEdge(graph.EdgeSpec{From: id(comp, r, c), To: id(comp, r, c+1), Class: graph.Residential, TwoWay: true})
				}
				if r+1 < rows {
					b.AddEdge(graph.EdgeSpec{From: id(comp, r, c), To: id(comp, r+1, c), Class: graph.Residential, TwoWay: true})
				}
			}
		}
	}
	return b.Build()
}

// TestElimTreeStructure pins the elimination tree's defining invariants
// on the preprocessed topology: the parent is the lowest-ranked upward
// neighbor, every parent outranks its child, depths increase by exactly
// one along parent pointers, and roots are exactly the nodes without
// chordal pairs.
func TestElimTreeStructure(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(17, 200)} {
		pre := Preprocess(g)
		et := pre.ElimTree()
		if et == nil {
			t.Fatalf("graph %d: preprocessing built no elimination tree", gi)
		}
		rank := pre.rank
		if len(et.Parent) != g.NumNodes() || len(et.Depth) != g.NumNodes() {
			t.Fatalf("graph %d: tree sized %d/%d for %d nodes", gi, len(et.Parent), len(et.Depth), g.NumNodes())
		}
		// Recover each node's lowest-ranked upward neighbor from the raw
		// pair lists — the independent ground truth for Parent.
		minHi := make([]graph.NodeID, g.NumNodes())
		for v := range minHi {
			minHi[v] = graph.InvalidNode
		}
		for i, lo := range pre.lo {
			hi := pre.hi[i]
			if minHi[lo] == graph.InvalidNode || rank[hi] < rank[minHi[lo]] {
				minHi[lo] = hi
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			p := et.Parent[v]
			if p != minHi[v] {
				t.Fatalf("graph %d node %d: parent %d, lowest upward neighbor %d", gi, v, p, minHi[v])
			}
			if p == graph.InvalidNode {
				if et.Depth[v] != 0 {
					t.Fatalf("graph %d: root %d at depth %d", gi, v, et.Depth[v])
				}
				continue
			}
			if rank[p] <= rank[v] {
				t.Fatalf("graph %d node %d: parent %d does not outrank it (%d vs %d)", gi, v, p, rank[p], rank[v])
			}
			if et.Depth[v] != et.Depth[p]+1 {
				t.Fatalf("graph %d node %d: depth %d, parent depth %d", gi, v, et.Depth[v], et.Depth[p])
			}
		}
		if h := et.Height(); h <= 0 || h > g.NumNodes() {
			t.Fatalf("graph %d: height %d out of range", gi, h)
		}
	}
}

// TestElimQueryMatchesDijkstra pins the point-to-point query against the
// Dijkstra oracle on every metric family a publish can produce —
// perturbations, heavy closures, perfect customization: Dist and the
// forward tree's route agree with sp.ShortestPath on reachability and
// distance, and every route is a connected edge sequence whose cost is
// Dist.
func TestElimQueryMatchesDijkstra(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(23, 200)} {
		pre := Preprocess(g)
		for round := 0; round < 3; round++ {
			w := perturbedWeights(g, int64(gi*10+round), 0.10*float64(round))
			h := pre.CustomizeWith(w, Config{Perfect: round == 2})
			tb := h.NewTreeBuilder()
			rng := rand.New(rand.NewSource(int64(100*gi + round)))
			for q := 0; q < 60; q++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				_, want := sp.ShortestPath(g, w, s, dst)
				for _, got := range []float64{h.Dist(s, dst), pathCost(t, g, h, tb, w, s, dst)} {
					if math.IsInf(want, 1) != math.IsInf(got, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-6) {
						t.Fatalf("graph %d round %d (%d->%d): CCH %v, dijkstra %v", gi, round, s, dst, got, want)
					}
				}
			}
		}
	}
}

// pathCost returns the distance of dst in tb's forward tree from s after
// checking the tree's route to dst: a continuous s→dst walk of original
// edges whose cost under w equals h.Dist(s, dst), empty when s == dst. An
// unreached dst must come with +Inf from both the tree and Dist.
func pathCost(t *testing.T, g *graph.Graph, h ch.Hierarchy, tb *ch.TreeBuilder, w []float64, s, dst graph.NodeID) float64 {
	t.Helper()
	ws := sp.GetWorkspace()
	defer ws.Release()
	tree := tb.BuildTreeInto(ws, s, sp.Forward)
	d := h.Dist(s, dst)
	edges, ok := tree.PathInto(nil, g, dst)
	if !ok {
		if !math.IsInf(tree.Dist[dst], 1) || !math.IsInf(d, 1) {
			t.Fatalf("route %d->%d: no tree path at tree distance %v, Dist %v", s, dst, tree.Dist[dst], d)
		}
		return tree.Dist[dst]
	}
	cur := s
	var cost float64
	for i, e := range edges {
		ed := g.Edge(e)
		if ed.From != cur {
			t.Fatalf("route %d->%d: discontinuous at edge %d", s, dst, i)
		}
		cur = ed.To
		cost += w[e]
	}
	if cur != dst || math.Abs(cost-d) > 1e-6 {
		t.Fatalf("route %d->%d: ends at %d with cost %v, Dist %v", s, dst, cur, cost, d)
	}
	return tree.Dist[dst]
}

// TestElimQueryClosurePublishSwap mirrors the serving layer's live-ban
// flow on the elimination-tree engine: a node whose incident edges are
// all closed must be unreachable in both directions after the publish
// swap, stay exactly answerable everywhere else, and come back when the
// ban lifts — each state a customization of one shared preprocessing.
func TestElimQueryClosurePublishSwap(t *testing.T) {
	g := gridCity(10, 10)
	base := g.CopyWeights()
	pre := PreprocessShared(g)
	h := pre.Customize(base)
	checkDistances(t, g, h, base, 25, 1)

	victim := graph.NodeID(55)
	banned := g.CopyWeights()
	for _, e := range g.OutEdges(victim) {
		banned[e] = math.Inf(1)
	}
	for _, e := range g.InEdges(victim) {
		banned[e] = math.Inf(1)
	}
	h2 := pre.Customize(banned)
	tb2 := h2.NewTreeBuilder()
	for _, other := range []graph.NodeID{0, 42, 99} {
		if d := h2.Dist(other, victim); !math.IsInf(d, 1) {
			t.Fatalf("banned node still reachable: %d->%d = %f", other, victim, d)
		}
		if d := h2.Dist(victim, other); !math.IsInf(d, 1) {
			t.Fatalf("banned node still escapes: %d->%d = %f", victim, other, d)
		}
		if d := pathCost(t, g, h2, tb2, banned, other, victim); !math.IsInf(d, 1) {
			t.Fatalf("tree route over ban at %f", d)
		}
	}
	checkDistances(t, g, h2, banned, 25, 2)

	h3 := pre.Customize(base)
	if d := h3.Dist(0, victim); math.IsInf(d, 1) {
		t.Fatalf("lifted ban: %d->%d still unreachable", 0, victim)
	}
	checkDistances(t, g, h3, base, 25, 3)
}

// TestElimQueryEdgeCases covers s==t and cross-component queries: zero
// distance with an empty tree route for the former, +Inf with no tree
// route for the latter — on both plain and perfect customizations.
func TestElimQueryEdgeCases(t *testing.T) {
	g := twoComponentCity(6, 6)
	w := g.CopyWeights()
	pre := Preprocess(g)
	for _, perfect := range []bool{false, true} {
		h := pre.CustomizeWith(w, Config{Perfect: perfect})
		tb := h.NewTreeBuilder()
		for _, v := range []graph.NodeID{0, 17, 40} {
			if d := h.Dist(v, v); d != 0 {
				t.Fatalf("perfect=%v: Dist(%d,%d) = %f", perfect, v, v, d)
			}
			if d := pathCost(t, g, h, tb, w, v, v); d != 0 {
				t.Fatalf("perfect=%v: tree route %d->%d at %f", perfect, v, v, d)
			}
		}
		half := graph.NodeID(g.NumNodes() / 2)
		for _, q := range [][2]graph.NodeID{{0, half}, {half, 0}, {half - 1, half + 1}} {
			if d := h.Dist(q[0], q[1]); !math.IsInf(d, 1) {
				t.Fatalf("perfect=%v: cross-component Dist(%d,%d) = %f", perfect, q[0], q[1], d)
			}
			if d := pathCost(t, g, h, tb, w, q[0], q[1]); !math.IsInf(d, 1) {
				t.Fatalf("perfect=%v: cross-component tree route %d->%d at %f", perfect, q[0], q[1], d)
			}
		}
		// Within-component queries stay exact.
		checkDistances(t, g, h, w, 30, 11)
	}
}

// TestElimScratchAcrossRecustomize is the stale-scratch guard: runtimes
// from successive customizations of one preprocessing answer interleaved
// queries without bleeding labels across each other or across their own
// earlier queries (workspace epochs, not clearing, are what isolates
// them).
func TestElimScratchAcrossRecustomize(t *testing.T) {
	g := randomCity(29, 150)
	w1 := perturbedWeights(g, 1, 0.05)
	w2 := perturbedWeights(g, 2, 0.15)
	pre := PreprocessShared(g)
	h1 := pre.Customize(w1)
	checkDistances(t, g, h1, w1, 10, 21)
	h2 := pre.Customize(w2)
	// Interleave: the same workspace pool serves both runtimes.
	rng := rand.New(rand.NewSource(31))
	for q := 0; q < 30; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		h := h1
		w := w1
		if q%2 == 1 {
			h, w = h2, w2
		}
		_, want := sp.ShortestPath(g, w, s, dst)
		got := h.Dist(s, dst)
		if math.IsInf(want, 1) != math.IsInf(got, 1) || (!math.IsInf(want, 1) && math.Abs(got-want) > 1e-6) {
			t.Fatalf("query %d (%d->%d): got %v want %v", q, s, dst, got, want)
		}
	}
}

// TestElimDistWarmZeroAlloc pins the hot path's allocation budget: a warm
// elimination-tree Dist allocates nothing — the workspace comes from the
// pool and the ascents walk parent pointers with no per-query state.
func TestElimDistWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(12, 12)
	h := PreprocessShared(g).Customize(g.CopyWeights())
	s, dst := graph.NodeID(5), graph.NodeID(138)
	h.Dist(s, dst) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { h.Dist(s, dst) }); allocs != 0 {
		t.Fatalf("warm elimination-tree Dist allocates %.1f/op", allocs)
	}
}
