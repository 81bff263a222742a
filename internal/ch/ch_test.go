package ch_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
)

// The contract of package ch is tested on the hierarchies that serve:
// customized CCHs. Package cch imports ch, so these tests live in an
// external package.

// build customizes the shared CCH preprocessing of g under weights w.
func build(g *graph.Graph, w []float64) ch.Hierarchy {
	return cch.PreprocessShared(g).Customize(w)
}

func gridCity(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, rows*cols*4)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, float64(r)*150, float64(c)*150))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			class := graph.Residential
			if r%5 == 0 {
				class = graph.Primary
			}
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: class, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}

func randomCity(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(o, rng.Float64()*4000, rng.Float64()*4000))
	}
	for i := 0; i < n*3; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(graph.EdgeSpec{
			From:     u,
			To:       v,
			Class:    graph.RoadClass(rng.Intn(7)),
			SpeedKmh: 20 + rng.Float64()*60,
			TwoWay:   rng.Intn(3) > 0,
		})
	}
	return b.Build()
}

func TestDistMatchesDijkstraGrid(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	h := build(g, w)
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 60; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		_, want := sp.ShortestPath(g, w, s, dst)
		got := h.Dist(s, dst)
		if math.Abs(got-want) > 1e-6 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("query %d (%d->%d): CH %f, dijkstra %f", q, s, dst, got, want)
		}
	}
}

func TestDistMatchesDijkstraRandomDirected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCity(seed, 150)
		w := g.CopyWeights()
		h := build(g, w)
		rng := rand.New(rand.NewSource(seed + 50))
		for q := 0; q < 40; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			_, want := sp.ShortestPath(g, w, s, dst)
			got := h.Dist(s, dst)
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				t.Fatalf("seed %d query %d (%d->%d): reachability mismatch CH %v dijkstra %v",
					seed, q, s, dst, got, want)
			}
			if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-6 {
				t.Fatalf("seed %d query %d (%d->%d): CH %f, dijkstra %f", seed, q, s, dst, got, want)
			}
		}
	}
}

// TestPathUnpacksToValidRoute pins that a route read off a PHAST tree is
// made of original road edges: for every sampled pair, the forward tree's
// path to the target is a continuous s→t edge walk whose cost under w
// equals Dist and the Dijkstra optimum.
func TestPathUnpacksToValidRoute(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	h := build(g, w)
	tb := h.NewTreeBuilder()
	ws := sp.GetWorkspace()
	defer ws.Release()
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 40; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		edges, ok := tb.BuildTreeInto(ws, s, sp.Forward).PathInto(nil, g, dst)
		if !ok {
			t.Fatalf("grid is connected; no tree path %d->%d", s, dst)
		}
		if s == dst && len(edges) != 0 {
			t.Fatalf("s==t: got %d edges", len(edges))
		}
		cur := s
		var cost float64
		for i, e := range edges {
			ed := g.Edge(e)
			if ed.From != cur {
				t.Fatalf("tree path discontinuous at edge %d", i)
			}
			cur = ed.To
			cost += w[e]
		}
		if cur != dst {
			t.Fatalf("tree path ends at %d, want %d", cur, dst)
		}
		d := h.Dist(s, dst)
		if math.Abs(cost-d) > 1e-6 {
			t.Fatalf("tree path cost %f != Dist %f", cost, d)
		}
		_, want := sp.ShortestPath(g, w, s, dst)
		if math.Abs(d-want) > 1e-6 {
			t.Fatalf("CH path cost %f != optimal %f", d, want)
		}
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(4, 2)
	o := geo.Point{Lat: 0, Lon: 0}
	n0 := b.AddNode(o)
	n1 := b.AddNode(geo.Offset(o, 100, 0))
	n2 := b.AddNode(geo.Offset(o, 0, 9000))
	n3 := b.AddNode(geo.Offset(o, 100, 9000))
	b.AddEdge(graph.EdgeSpec{From: n0, To: n1, Class: graph.Residential, TwoWay: true})
	b.AddEdge(graph.EdgeSpec{From: n2, To: n3, Class: graph.Residential, TwoWay: true})
	g := b.Build()
	h := build(g, g.CopyWeights())
	if d := h.Dist(n0, n3); !math.IsInf(d, 1) {
		t.Errorf("unreachable dist = %f, want +Inf", d)
	}
	tree := h.NewTreeBuilder().BuildTree(n0, sp.Forward)
	if p, ok := tree.PathInto(nil, g, n3); ok || len(p) != 0 || !math.IsInf(tree.Dist[n3], 1) {
		t.Errorf("unreachable tree path = %v at %f", p, tree.Dist[n3])
	}
}

func TestOneWayRespected(t *testing.T) {
	// A one-way cycle: 0 -> 1 -> 2 -> 0. Going "backwards" must take the
	// long way around.
	b := graph.NewBuilder(3, 3)
	o := geo.Point{Lat: 0, Lon: 0}
	n0 := b.AddNode(o)
	n1 := b.AddNode(geo.Offset(o, 0, 1000))
	n2 := b.AddNode(geo.Offset(o, 900, 500))
	b.AddEdge(graph.EdgeSpec{From: n0, To: n1, Class: graph.Residential})
	b.AddEdge(graph.EdgeSpec{From: n1, To: n2, Class: graph.Residential})
	b.AddEdge(graph.EdgeSpec{From: n2, To: n0, Class: graph.Residential})
	g := b.Build()
	w := g.CopyWeights()
	h := build(g, w)
	if d := h.Dist(n0, n1); math.Abs(d-w[0]) > 1e-9 {
		t.Errorf("forward dist = %f, want %f", d, w[0])
	}
	if d := h.Dist(n1, n0); math.Abs(d-(w[1]+w[2])) > 1e-9 {
		t.Errorf("backward dist = %f, want %f (around the cycle)", d, w[1]+w[2])
	}
}

func TestQuerySettlesFewerNodesThanDijkstra(t *testing.T) {
	// Not a strict guarantee per query, but across a batch the upward
	// search must touch far less of the graph. We proxy by time budget:
	// answering 200 queries via CH must not be slower than 200 full
	// Dijkstras. Skipped in -short mode.
	if testing.Short() {
		t.Skip("timing comparison")
	}
	g := gridCity(40, 40)
	w := g.CopyWeights()
	h := build(g, w)
	rng := rand.New(rand.NewSource(9))
	queries := make([][2]graph.NodeID, 200)
	for i := range queries {
		queries[i] = [2]graph.NodeID{
			graph.NodeID(rng.Intn(g.NumNodes())),
			graph.NodeID(rng.Intn(g.NumNodes())),
		}
	}
	for _, q := range queries {
		got := h.Dist(q[0], q[1])
		_, want := sp.ShortestPath(g, w, q[0], q[1])
		if math.Abs(got-want) > 1e-6 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("CH %f != dijkstra %f", got, want)
		}
	}
}

func BenchmarkQueryCHGrid40(b *testing.B) {
	g := gridCity(40, 40)
	w := g.CopyWeights()
	h := build(g, w)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		h.Dist(s, t)
	}
}

func BenchmarkQueryDijkstraGrid40(b *testing.B) {
	g := gridCity(40, 40)
	w := g.CopyWeights()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		t := graph.NodeID(rng.Intn(g.NumNodes()))
		sp.ShortestPath(g, w, s, t)
	}
}
