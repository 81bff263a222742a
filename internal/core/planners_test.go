package core

import (
	"math"
	"testing"

	"repro/internal/citygen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
)

func TestPenaltyRoutesDiverge(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := NewPenalty(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("want 3 penalty routes on grid city, got %d", len(routes))
	}
	// Later routes must not be copies: pairwise similarity strictly < 1.
	for i := 0; i < len(routes); i++ {
		for j := i + 1; j < len(routes); j++ {
			if sim := path.Jaccard(g, routes[i], routes[j]); sim >= 1-1e-9 {
				t.Errorf("penalty routes %d,%d are identical roads (sim=%f)", i, j, sim)
			}
		}
	}
}

func TestPenaltyRespectsOptionalUpperBound(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	opts := Options{ApplyUpperBoundToPenalty: true}
	routes, err := NewPenalty(g, opts).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	fastest := routes[0].TimeS
	for i, r := range routes {
		if r.TimeS > DefaultUpperBound*fastest+1e-6 {
			t.Errorf("route %d stretch %f exceeds bound %f", i, r.TimeS/fastest, DefaultUpperBound)
		}
	}
}

func TestPenaltyFactorGrowth(t *testing.T) {
	// A stronger penalty factor must steer away from the fastest route at
	// least as quickly: with factor 1.0 (no penalty) all iterations return
	// the same path, so only one route comes back.
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	p := NewPenalty(g, Options{})
	p.opts.PenaltyFactor = 1.0 // degenerate: no penalty applied
	routes, err := p.Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Errorf("factor 1.0 should rediscover the same path forever, got %d routes", len(routes))
	}
}

func TestPenaltySimilarityCutoff(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := NewPenalty(g, Options{SimilarityCutoff: 0.6}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(routes); i++ {
		for j := i + 1; j < len(routes); j++ {
			if sim := path.Jaccard(g, routes[i], routes[j]); sim > 0.6+1e-9 {
				t.Errorf("similarity cutoff violated: routes %d,%d sim %f", i, j, sim)
			}
		}
	}
}

func TestPlateausShortestPathIsTopPlateau(t *testing.T) {
	g := testCity(t)
	w := g.CopyWeights()
	s, dst := graph.NodeID(2), graph.NodeID(11*12+9)
	pl := NewPlateaus(g, Options{})
	fwd := sp.BuildTree(g, w, s, sp.Forward)
	bwd := sp.BuildTree(g, w, dst, sp.Backward)
	plateaus := pl.FindPlateaus(fwd, bwd)
	if len(plateaus) == 0 {
		t.Fatal("no plateaus found")
	}
	best := plateaus[0]
	for _, p := range plateaus[1:] {
		if p.Score() > best.Score() {
			best = p
		}
	}
	// The fastest path is itself a plateau, and its score C−R = 0 is
	// maximal.
	if math.Abs(best.Score()) > 1e-6 {
		t.Errorf("best plateau score = %f, want 0 (the fastest path)", best.Score())
	}
	if math.Abs(best.RouteCostS-fwd.Dist[dst]) > 1e-6 {
		t.Errorf("best plateau route cost %f, want fastest %f", best.RouteCostS, fwd.Dist[dst])
	}
}

func TestPlateausAreNodeDisjoint(t *testing.T) {
	// The paper notes plateaus do not intersect each other.
	g := testCity(t)
	w := g.CopyWeights()
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	pl := NewPlateaus(g, Options{})
	fwd := sp.BuildTree(g, w, s, sp.Forward)
	bwd := sp.BuildTree(g, w, dst, sp.Backward)
	plateaus := pl.FindPlateaus(fwd, bwd)
	seen := map[graph.NodeID]int{}
	for pi, p := range plateaus {
		nodes := []graph.NodeID{p.Start}
		for _, e := range p.Edges {
			nodes = append(nodes, g.Edge(e).To)
		}
		for _, v := range nodes {
			if prev, dup := seen[v]; dup {
				t.Fatalf("node %d appears in plateaus %d and %d", v, prev, pi)
			}
			seen[v] = pi
		}
	}
}

func TestPlateauChainsAreMaximalAndContiguous(t *testing.T) {
	g := testCity(t)
	w := g.CopyWeights()
	s, dst := graph.NodeID(14), graph.NodeID(130)
	pl := NewPlateaus(g, Options{})
	fwd := sp.BuildTree(g, w, s, sp.Forward)
	bwd := sp.BuildTree(g, w, dst, sp.Backward)
	for i, p := range pl.FindPlateaus(fwd, bwd) {
		cur := p.Start
		var cost float64
		for j, e := range p.Edges {
			ed := g.Edge(e)
			if ed.From != cur {
				t.Fatalf("plateau %d: edge %d discontinuous", i, j)
			}
			cur = ed.To
			cost += w[e]
		}
		if cur != p.End {
			t.Fatalf("plateau %d: ends at %d, recorded End %d", i, cur, p.End)
		}
		if math.Abs(cost-p.CostS) > 1e-6 {
			t.Fatalf("plateau %d: cost %f, recorded %f", i, cost, p.CostS)
		}
		if p.Score() > 1e-9 {
			t.Fatalf("plateau %d: score %f > 0 impossible (C ≤ R)", i, p.Score())
		}
	}
}

func TestPlateausRespectUpperBound(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := NewPlateaus(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	fastest := routes[0].TimeS
	for i, r := range routes {
		if r.TimeS > DefaultUpperBound*fastest+1e-6 {
			t.Errorf("plateau route %d stretch %f exceeds 1.4", i, r.TimeS/fastest)
		}
	}
}

func TestDissimilarityPairwiseBelowTheta(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := NewDissimilarity(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(routes); i++ {
		for j := i + 1; j < len(routes); j++ {
			if sim := path.Jaccard(g, routes[i], routes[j]); sim >= DefaultTheta {
				t.Errorf("routes %d,%d similarity %f ≥ θ=%f", i, j, sim, DefaultTheta)
			}
		}
	}
}

func TestDissimilarityAscendingCostAndBound(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := NewDissimilarity(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	fastest := routes[0].TimeS
	for i := 1; i < len(routes); i++ {
		if routes[i].TimeS < routes[i-1].TimeS-1e-6 {
			t.Errorf("routes not in ascending cost order: %f then %f", routes[i-1].TimeS, routes[i].TimeS)
		}
	}
	for i, r := range routes {
		if r.TimeS > DefaultUpperBound*fastest+1e-6 {
			t.Errorf("dissimilarity route %d stretch %f exceeds 1.4", i, r.TimeS/fastest)
		}
	}
}

func TestDissimilarityTightThetaYieldsFewerRoutes(t *testing.T) {
	// The paper's criterion admits p only if dis(p, P) > θ, so a larger θ
	// demands more dissimilar routes and can only shrink the result set.
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	loose, err := NewDissimilarity(g, Options{Theta: 0.05}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewDissimilarity(g, Options{Theta: 0.9}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight) > len(loose) {
		t.Errorf("tight θ=0.9 produced more routes (%d) than loose θ=0.05 (%d)", len(tight), len(loose))
	}
}

func TestDissimilarityRoutesAreSimple(t *testing.T) {
	g := testCity(t)
	routes, err := NewDissimilarity(g, Options{}).Alternatives(0, 11*12+11)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range routes {
		seen := map[graph.NodeID]bool{}
		for _, v := range r.Nodes {
			if seen[v] {
				t.Errorf("route %d revisits node %d", i, v)
			}
			seen[v] = true
		}
	}
}

func TestCommercialPlansOnPrivateData(t *testing.T) {
	g := testCity(t)
	w := g.CopyWeights()
	private := traffic.Apply(g, traffic.DefaultModel(99))
	c := NewCommercial(g, private, Options{})
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	routes, err := c.Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Its first route is optimal under private data...
	_, privBest := sp.ShortestPath(g, private, s, dst)
	if got := routes[0].TimeUnder(private); math.Abs(got-privBest) > 1e-6 {
		t.Errorf("first route private time %f, want private optimum %f", got, privBest)
	}
	// ...but is reported with public travel times.
	if math.Abs(routes[0].TimeS-routes[0].TimeUnder(w)) > 1e-9 {
		t.Error("commercial routes must be timed under public weights")
	}
}

func TestCommercialDiffersFromPlateausSomewhere(t *testing.T) {
	// With different underlying data, the providers must disagree on at
	// least one of a set of queries (this is the premise of Fig. 4).
	g := testCity(t)
	private := traffic.Apply(g, traffic.DefaultModel(99))
	c := NewCommercial(g, private, Options{})
	p := NewPlateaus(g, Options{})
	queries := [][2]graph.NodeID{
		{0, 143}, {5, 138}, {12, 131}, {60, 83}, {3, 140}, {24, 119},
	}
	differs := false
	for _, q := range queries {
		cr, err1 := c.Alternatives(q[0], q[1])
		pr, err2 := p.Alternatives(q[0], q[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("query %v: %v / %v", q, err1, err2)
		}
		if !path.Equal(cr[0], pr[0]) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("commercial provider agreed with Plateaus on every query — private data has no effect")
	}
}

func TestYenAscendingAndLoopless(t *testing.T) {
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(60)
	routes, err := NewYen(g, Options{K: 5}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 5 {
		t.Fatalf("want 5 Yen routes, got %d", len(routes))
	}
	for i := 1; i < len(routes); i++ {
		if routes[i].TimeS < routes[i-1].TimeS-1e-9 {
			t.Errorf("Yen routes out of order: %f then %f", routes[i-1].TimeS, routes[i].TimeS)
		}
	}
	for i, r := range routes {
		seen := map[graph.NodeID]bool{}
		for _, v := range r.Nodes {
			if seen[v] {
				t.Errorf("Yen route %d contains a loop at node %d", i, v)
			}
			seen[v] = true
		}
	}
}

func TestYenOnHandcraftedGraph(t *testing.T) {
	// Classic example: three known shortest paths with known costs.
	//
	//	s --10--> a --10--> t
	//	s --15--> b --10--> t
	//	a --3---> b
	//
	// Paths: s-a-t (20), s-a-b-t (23), s-b-t (25).
	b := graph.NewBuilder(4, 5)
	o := geo.Point{Lat: 0, Lon: 0}
	s := b.AddNode(o)
	na := b.AddNode(geo.Offset(o, 1000, 1000))
	nb := b.AddNode(geo.Offset(o, -1000, 1000))
	dst := b.AddNode(geo.Offset(o, 0, 2000))
	// Use Length+Speed to produce the desired costs: residential 1.3
	// factor applies uniformly, so ratios are preserved; simpler to just
	// use proportional lengths at a fixed speed.
	add := func(u, v graph.NodeID, units float64) {
		if _, err := b.AddEdge(graph.EdgeSpec{From: u, To: v, LengthM: units * 100, SpeedKmh: 36, Class: graph.Residential}); err != nil {
			t.Fatal(err)
		}
	}
	add(s, na, 10)
	add(na, dst, 10)
	add(s, nb, 15)
	add(nb, dst, 10)
	add(na, nb, 3)
	g := b.Build()

	routes, err := NewYen(g, Options{K: 3}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("want 3 routes, got %d", len(routes))
	}
	// Cost unit: 100m at 36km/h × 1.3 = 13 s per unit.
	unit := 13.0
	wantCosts := []float64{20 * unit, 23 * unit, 25 * unit}
	for i, want := range wantCosts {
		if math.Abs(routes[i].TimeS-want) > 1e-6 {
			t.Errorf("route %d cost %f, want %f", i, routes[i].TimeS, want)
		}
	}
	wantNodes := [][]graph.NodeID{
		{s, na, dst},
		{s, na, nb, dst},
		{s, nb, dst},
	}
	for i, want := range wantNodes {
		if len(routes[i].Nodes) != len(want) {
			t.Errorf("route %d nodes %v, want %v", i, routes[i].Nodes, want)
			continue
		}
		for j := range want {
			if routes[i].Nodes[j] != want[j] {
				t.Errorf("route %d nodes %v, want %v", i, routes[i].Nodes, want)
				break
			}
		}
	}
}

func TestYenRoutesAreMoreSimilarThanAlternativeTechniques(t *testing.T) {
	// The reason the study exists: trivially applying Yen gives nearly
	// identical routes. Its Sim(T) should exceed Dissimilarity's.
	g := testCity(t)
	s, dst := graph.NodeID(0), graph.NodeID(11*12+11)
	yen, err := NewYen(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := NewDissimilarity(g, Options{}).Alternatives(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(yen) < 2 || len(dis) < 2 {
		t.Skip("need ≥2 routes from both techniques")
	}
	if path.SimT(g, yen) <= path.SimT(g, dis) {
		t.Errorf("Yen Sim(T)=%f should exceed Dissimilarity Sim(T)=%f",
			path.SimT(g, yen), path.SimT(g, dis))
	}
}

// TestPenaltyWarmAllocs pins the warm query to the allocations of the
// routes it returns: the route slice plus one edge and one node slice per
// route. The working weight copy comes from a pool, and a rediscovered
// route is refused before it is built.
func TestPenaltyWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPenalty(g, Options{})
	q := separatedPairs(g, 1, 800, 7)[0]
	routes, err := p.Alternatives(q[0], q[1])
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Alternatives(q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*len(routes) + 1); allocs > limit {
		t.Errorf("%v allocs per warm query (%d routes), want ≤ %v", allocs, len(routes), limit)
	}
	t.Logf("%v allocs per warm query, %d routes", allocs, len(routes))
}
