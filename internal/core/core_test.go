package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
)

// testCity builds a 12×12 grid town (200 m blocks) with two primary
// arterials and one motorway bypass along the southern edge — enough
// structure for genuinely different alternative routes to exist.
func testCity(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 12
	b := graph.NewBuilder(n*n+2, 0)
	o := geo.Point{Lat: -37.84, Lon: 144.93}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Offset(o, float64(r)*200, float64(c)*200))
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			class := graph.Residential
			if r == 4 || r == 8 {
				class = graph.Primary
			}
			if c == 6 {
				class = graph.Secondary
			}
			if c+1 < n {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: class, TwoWay: true})
			}
			if r+1 < n {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	// Motorway bypass south of the grid with ramps at both ends.
	w := b.AddNode(geo.Offset(o, -400, -200))
	e := b.AddNode(geo.Offset(o, -400, float64(n)*200))
	b.AddEdge(graph.EdgeSpec{From: id(0, 0), To: w, Class: graph.MotorwayLink, TwoWay: true})
	b.AddEdge(graph.EdgeSpec{From: w, To: e, Class: graph.Motorway, TwoWay: true})
	b.AddEdge(graph.EdgeSpec{From: e, To: id(0, n-1), Class: graph.MotorwayLink, TwoWay: true})
	return b.Build()
}

// disconnectedPair returns a graph with two components and a node from each.
func disconnectedPair(t *testing.T) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(4, 2)
	o := geo.Point{Lat: 0, Lon: 0}
	a := b.AddNode(o)
	a2 := b.AddNode(geo.Offset(o, 100, 0))
	c := b.AddNode(geo.Offset(o, 0, 9000))
	c2 := b.AddNode(geo.Offset(o, 100, 9000))
	b.AddEdge(graph.EdgeSpec{From: a, To: a2, Class: graph.Residential, TwoWay: true})
	b.AddEdge(graph.EdgeSpec{From: c, To: c2, Class: graph.Residential, TwoWay: true})
	return b.Build(), a, c
}

// allPlanners instantiates each studied technique over g.
func allPlanners(g *graph.Graph, opts Options) []Planner {
	private := traffic.Apply(g, traffic.DefaultModel(99))
	return []Planner{
		NewCommercial(g, private, opts),
		NewPlateaus(g, opts),
		NewDissimilarity(g, opts),
		NewPenalty(g, opts),
	}
}

func checkRouteSet(t *testing.T, g *graph.Graph, name string, routes []path.Path, s, dst graph.NodeID, k int) {
	t.Helper()
	if len(routes) == 0 {
		t.Fatalf("%s: no routes", name)
	}
	if len(routes) > k {
		t.Fatalf("%s: %d routes, want at most %d", name, len(routes), k)
	}
	for i, r := range routes {
		if r.Source() != s || r.Target() != dst {
			t.Fatalf("%s route %d: endpoints %d->%d, want %d->%d",
				name, i, r.Source(), r.Target(), s, dst)
		}
		cur := s
		for j, e := range r.Edges {
			ed := g.Edge(e)
			if ed.From != cur {
				t.Fatalf("%s route %d: discontinuity at edge %d", name, i, j)
			}
			cur = ed.To
		}
		for j := 0; j < i; j++ {
			if path.Equal(routes[i], routes[j]) {
				t.Fatalf("%s: routes %d and %d identical", name, i, j)
			}
		}
	}
}

func TestAllPlannersBasicContract(t *testing.T) {
	g := testCity(t)
	w := g.CopyWeights()
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	_, fastest := sp.ShortestPath(g, w, s, dst)
	for _, pl := range allPlanners(g, Options{}) {
		t.Run(pl.Name(), func(t *testing.T) {
			routes, err := pl.Alternatives(s, dst)
			if err != nil {
				t.Fatalf("Alternatives: %v", err)
			}
			checkRouteSet(t, g, pl.Name(), routes, s, dst, DefaultK)
			// Every route's displayed time is computed under public weights.
			for i, r := range routes {
				if math.Abs(r.TimeUnder(w)-r.TimeS) > 1e-6 {
					t.Errorf("route %d TimeS not under public weights: %f vs %f",
						i, r.TimeS, r.TimeUnder(w))
				}
				if r.TimeS < fastest-1e-6 {
					t.Errorf("route %d faster (%f) than the fastest path (%f)", i, r.TimeS, fastest)
				}
			}
		})
	}
}

func TestPlannersProduceMultipleRoutes(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	for _, pl := range allPlanners(g, Options{}) {
		routes, err := pl.Alternatives(s, dst)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(routes) < 2 {
			t.Errorf("%s returned %d routes on a grid city; want ≥ 2", pl.Name(), len(routes))
		}
	}
}

func TestSameSourceTarget(t *testing.T) {
	g := testCity(t)
	for _, pl := range append(allPlanners(g, Options{}), NewYen(g, Options{})) {
		routes, err := pl.Alternatives(5, 5)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if len(routes) != 1 || !routes[0].Empty() {
			t.Errorf("%s: s==t should yield one empty route, got %d routes", pl.Name(), len(routes))
		}
	}
}

func TestUnreachableTarget(t *testing.T) {
	g, s, dst := disconnectedPair(t)
	private := traffic.Apply(g, traffic.DefaultModel(1))
	planners := []Planner{
		NewPenalty(g, Options{}),
		NewPlateaus(g, Options{}),
		NewDissimilarity(g, Options{}),
		NewCommercial(g, private, Options{}),
		NewYen(g, Options{}),
	}
	for _, pl := range planners {
		if _, err := pl.Alternatives(s, dst); err != ErrNoRoute {
			t.Errorf("%s: want ErrNoRoute, got %v", pl.Name(), err)
		}
	}
}

func TestInvalidNodes(t *testing.T) {
	g := testCity(t)
	for _, pl := range allPlanners(g, Options{}) {
		if _, err := pl.Alternatives(-1, 5); err == nil {
			t.Errorf("%s: negative source should error", pl.Name())
		}
		if _, err := pl.Alternatives(5, graph.NodeID(g.NumNodes())); err == nil {
			t.Errorf("%s: out-of-range target should error", pl.Name())
		}
	}
}

func TestFirstRouteIsFastestForOSMPlanners(t *testing.T) {
	g := testCity(t)
	w := g.CopyWeights()
	s, dst := graph.NodeID(3), graph.NodeID(11*12+8)
	_, fastest := sp.ShortestPath(g, w, s, dst)
	for _, pl := range []Planner{NewPenalty(g, Options{}), NewPlateaus(g, Options{}), NewDissimilarity(g, Options{})} {
		routes, err := pl.Alternatives(s, dst)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if math.Abs(routes[0].TimeS-fastest) > 1e-6 {
			t.Errorf("%s first route time %f, want fastest %f", pl.Name(), routes[0].TimeS, fastest)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.K != DefaultK || o.UpperBound != DefaultUpperBound ||
		o.PenaltyFactor != DefaultPenaltyFactor || o.Theta != DefaultTheta {
		t.Errorf("withDefaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{K: 5, UpperBound: 2, PenaltyFactor: 1.1, Theta: 0.3}.withDefaults()
	if o.K != 5 || o.UpperBound != 2 || o.PenaltyFactor != 1.1 || o.Theta != 0.3 {
		t.Errorf("withDefaults clobbered explicit values: %+v", o)
	}
	// A penalty factor below 1 would lower weights under Penalty's
	// potential; it selects the default, and 1 itself is kept.
	if o := (Options{PenaltyFactor: 0.5}).withDefaults(); o.PenaltyFactor != DefaultPenaltyFactor {
		t.Errorf("PenaltyFactor 0.5 became %v, want the default", o.PenaltyFactor)
	}
	if o := (Options{PenaltyFactor: 1}).withDefaults(); o.PenaltyFactor != 1 {
		t.Errorf("PenaltyFactor 1 became %v", o.PenaltyFactor)
	}
}

func TestRandomQueriesAllPlanners(t *testing.T) {
	g := testCity(t)
	rng := rand.New(rand.NewSource(17))
	planners := allPlanners(g, Options{})
	for q := 0; q < 25; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		for _, pl := range planners {
			routes, err := pl.Alternatives(s, dst)
			if err != nil {
				t.Fatalf("query %d %s (%d->%d): %v", q, pl.Name(), s, dst, err)
			}
			checkRouteSet(t, g, pl.Name(), routes, s, dst, DefaultK)
		}
	}
}
