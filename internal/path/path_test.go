package path

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/citygen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/sp"
)

// ladder builds a 2×n ladder graph (two parallel streets with rungs):
//
//	0 - 1 - 2 - ... - (n-1)        top street
//	|   |   |          |
//	n - n+1 - ...     (2n-1)       bottom street
func ladder(n int) *graph.Graph {
	b := graph.NewBuilder(2*n, 6*n)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(o, 200, float64(i)*200))
	}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(o, 0, float64(i)*200))
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.EdgeSpec{From: graph.NodeID(i), To: graph.NodeID(i + 1), Class: graph.Residential, TwoWay: true})
		b.AddEdge(graph.EdgeSpec{From: graph.NodeID(n + i), To: graph.NodeID(n + i + 1), Class: graph.Residential, TwoWay: true})
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.EdgeSpec{From: graph.NodeID(i), To: graph.NodeID(n + i), Class: graph.Residential, TwoWay: true})
	}
	return b.Build()
}

func topPath(t *testing.T, g *graph.Graph, n int) Path {
	t.Helper()
	w := g.CopyWeights()
	edges := make([]graph.EdgeID, 0, n-1)
	for i := 0; i+1 < n; i++ {
		e := g.FindEdge(graph.NodeID(i), graph.NodeID(i+1))
		if e < 0 {
			t.Fatalf("missing top edge %d->%d", i, i+1)
		}
		edges = append(edges, e)
	}
	return MustNew(g, w, 0, edges)
}

func bottomViaPath(t *testing.T, g *graph.Graph, n int) Path {
	t.Helper()
	// 0 -> n -> n+1 -> ... -> 2n-1 -> n-1 : down, along the bottom, up.
	w := g.CopyWeights()
	edges := []graph.EdgeID{g.FindEdge(0, graph.NodeID(n))}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, g.FindEdge(graph.NodeID(n+i), graph.NodeID(n+i+1)))
	}
	edges = append(edges, g.FindEdge(graph.NodeID(2*n-1), graph.NodeID(n-1)))
	for i, e := range edges {
		if e < 0 {
			t.Fatalf("missing edge at index %d", i)
		}
	}
	return MustNew(g, w, 0, edges)
}

func TestNewValidatesContiguity(t *testing.T) {
	g := ladder(4)
	w := g.CopyWeights()
	e01 := g.FindEdge(0, 1)
	e23 := g.FindEdge(2, 3)
	if _, err := New(g, w, 0, []graph.EdgeID{e01, e23}); err == nil {
		t.Error("gap in edge sequence should be rejected")
	}
	if _, err := New(g, w, 1, []graph.EdgeID{e01}); err == nil {
		t.Error("wrong start node should be rejected")
	}
	p, err := New(g, w, 0, []graph.EdgeID{e01})
	if err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if p.Source() != 0 || p.Target() != 1 {
		t.Errorf("endpoints = %d,%d want 0,1", p.Source(), p.Target())
	}
}

func TestEmptyPath(t *testing.T) {
	g := ladder(3)
	w := g.CopyWeights()
	p := MustNew(g, w, 2, nil)
	if !p.Empty() || p.TimeS != 0 || p.LengthM != 0 {
		t.Error("empty path should have zero measures")
	}
	if p.Source() != 2 || p.Target() != 2 {
		t.Error("empty path endpoints should equal the start node")
	}
}

func TestTimeAndLengthAccumulate(t *testing.T) {
	g := ladder(5)
	w := g.CopyWeights()
	p := topPath(t, g, 5)
	var wantT, wantL float64
	for _, e := range p.Edges {
		wantT += w[e]
		wantL += g.Edge(e).LengthM
	}
	if math.Abs(p.TimeS-wantT) > 1e-9 || math.Abs(p.LengthM-wantL) > 1e-9 {
		t.Errorf("accumulated %f/%f, want %f/%f", p.TimeS, p.LengthM, wantT, wantL)
	}
}

func TestTimeUnderDifferentWeights(t *testing.T) {
	g := ladder(5)
	w := g.CopyWeights()
	p := topPath(t, g, 5)
	w2 := g.CopyWeights()
	for i := range w2 {
		w2[i] *= 2
	}
	if got := p.TimeUnder(w2); math.Abs(got-2*p.TimeS) > 1e-9 {
		t.Errorf("TimeUnder doubled weights = %f, want %f", got, 2*p.TimeS)
	}
	if got := p.TimeUnder(w); math.Abs(got-p.TimeS) > 1e-9 {
		t.Errorf("TimeUnder original weights = %f, want %f", got, p.TimeS)
	}
}

func TestJaccardIdenticalAndDisjoint(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	if got := Jaccard(g, top, top); math.Abs(got-1) > 1e-9 {
		t.Errorf("self similarity = %f, want 1", got)
	}
	got := Jaccard(g, top, bottom)
	if got != 0 {
		t.Errorf("disjoint paths similarity = %f, want 0", got)
	}
}

func TestJaccardCountsOppositeDirectionsAsSameRoad(t *testing.T) {
	g := ladder(4)
	w := g.CopyWeights()
	// Forward along the top vs backward along the top: same physical road.
	fwd := topPath(t, g, 4)
	var back []graph.EdgeID
	for i := 3; i > 0; i-- {
		back = append(back, g.FindEdge(graph.NodeID(i), graph.NodeID(i-1)))
	}
	bwd := MustNew(g, w, 3, back)
	if got := Jaccard(g, fwd, bwd); math.Abs(got-1) > 1e-9 {
		t.Errorf("opposite-direction same road similarity = %f, want 1", got)
	}
}

func TestJaccardSymmetricAndBounded(t *testing.T) {
	n := 8
	g := ladder(n)
	w := g.CopyWeights()
	rng := rand.New(rand.NewSource(5))
	randomWalkPath := func(start graph.NodeID, steps int) Path {
		edges := []graph.EdgeID{}
		cur := start
		for i := 0; i < steps; i++ {
			out := g.OutEdges(cur)
			if len(out) == 0 {
				break
			}
			e := out[rng.Intn(len(out))]
			edges = append(edges, e)
			cur = g.Edge(e).To
		}
		return MustNew(g, w, start, edges)
	}
	for i := 0; i < 50; i++ {
		a := randomWalkPath(graph.NodeID(rng.Intn(2*n)), rng.Intn(10))
		b := randomWalkPath(graph.NodeID(rng.Intn(2*n)), rng.Intn(10))
		s1, s2 := Jaccard(g, a, b), Jaccard(g, b, a)
		if math.Abs(s1-s2) > 1e-9 {
			t.Fatalf("similarity not symmetric: %f vs %f", s1, s2)
		}
		if s1 < 0 || s1 > 1+1e-9 {
			t.Fatalf("similarity out of range: %f", s1)
		}
	}
}

func TestSimT(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	if got := SimT(g, nil); got != 0 {
		t.Errorf("SimT(empty) = %f, want 0", got)
	}
	if got := SimT(g, []Path{top}); got != 0 {
		t.Errorf("SimT(single) = %f, want 0", got)
	}
	if got := SimT(g, []Path{top, bottom}); got != 0 {
		t.Errorf("SimT(disjoint pair) = %f, want 0", got)
	}
	// Adding a duplicate raises SimT to 1 regardless of other members.
	if got := SimT(g, []Path{top, bottom, top}); math.Abs(got-1) > 1e-9 {
		t.Errorf("SimT with duplicate = %f, want 1", got)
	}
}

func TestMaxSimilarityTo(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	if got := MaxSimilarityTo(g, top, nil); got != 0 {
		t.Errorf("empty set similarity = %f, want 0", got)
	}
	if got := MaxSimilarityTo(g, top, []Path{bottom, top}); math.Abs(got-1) > 1e-9 {
		t.Errorf("similarity to set containing itself = %f, want 1", got)
	}
}

func TestTurnCount(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n) // straight line: no turns
	if got := TurnCount(g, top, 45); got != 0 {
		t.Errorf("straight path turn count = %d, want 0", got)
	}
	bottom := bottomViaPath(t, g, n) // down, along, up: exactly 2 right angles
	if got := TurnCount(g, bottom, 45); got != 2 {
		t.Errorf("dog-leg path turn count = %d, want 2", got)
	}
}

// pointTurnCount is TurnCount as it was before edges stored their
// bearings: two bearings computed from the three points at each interior
// vertex.
func pointTurnCount(g *graph.Graph, p Path, thresholdDeg float64) int {
	count := 0
	for i := 1; i+1 < len(p.Nodes); i++ {
		a := g.Point(p.Nodes[i-1])
		b := g.Point(p.Nodes[i])
		c := g.Point(p.Nodes[i+1])
		if geo.TurnAngle(a, b, c) > thresholdDeg {
			count++
		}
	}
	return count
}

// TestTurnCountMatchesPointBearings pins TurnCount on stored per-edge
// bearings to the point-based loop on the three study cities' routes —
// fastest routes under the base metric and under a seeded perturbation
// of it, which bends them — at several thresholds: the count, and every
// vertex's direction change bit for bit.
func TestTurnCountMatchesPointBearings(t *testing.T) {
	queries := 40
	if testing.Short() {
		queries = 10
	}
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2022))
		bent := g.CopyWeights()
		for e := range bent {
			bent[e] *= 0.5 + rng.Float64()
		}
		turns := 0
		for _, w := range [][]float64{g.BaseWeights(), bent} {
			for q := 0; q < queries; q++ {
				s, d := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
				edges, _ := sp.ShortestPath(g, w, s, d)
				p, err := New(g, w, s, edges)
				if err != nil {
					continue
				}
				for i := 1; i+1 < len(p.Nodes); i++ {
					want := geo.TurnAngle(g.Point(p.Nodes[i-1]), g.Point(p.Nodes[i]), g.Point(p.Nodes[i+1]))
					if got := geo.BearingChange(g.Bearing(p.Edges[i-1]), g.Bearing(p.Edges[i])); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: %d->%d vertex %d: stored bearings turn %v, points %v", prof.Name, s, d, i, got, want)
					}
				}
				for _, th := range []float64{0, 30, 45, 90, 135} {
					if got, want := TurnCount(g, p, th), pointTurnCount(g, p, th); got != want {
						t.Fatalf("%s: %d->%d threshold %v: %d turns, point-based loop %d", prof.Name, s, d, th, got, want)
					}
				}
				turns += TurnCount(g, p, 45)
			}
		}
		if turns == 0 {
			t.Fatalf("%s: no route turns, the comparison is vacuous", prof.Name)
		}
	}
}

func TestStretch(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	if got := Stretch(top, top.TimeS); math.Abs(got-1) > 1e-9 {
		t.Errorf("stretch vs itself = %f, want 1", got)
	}
	if got := Stretch(top, 0); !math.IsInf(got, 1) {
		t.Errorf("stretch with zero baseline = %f, want +Inf", got)
	}
	bottom := bottomViaPath(t, g, n)
	if got := Stretch(bottom, top.TimeS); got <= 1 {
		t.Errorf("longer path stretch = %f, want > 1", got)
	}
}

func TestMeanLanes(t *testing.T) {
	b := graph.NewBuilder(3, 4)
	o := geo.Point{Lat: 0, Lon: 0}
	n0 := b.AddNode(o)
	n1 := b.AddNode(geo.Offset(o, 0, 1000))
	n2 := b.AddNode(geo.Offset(o, 0, 2000))
	b.AddEdge(graph.EdgeSpec{From: n0, To: n1, Class: graph.Motorway, Lanes: 3})
	b.AddEdge(graph.EdgeSpec{From: n1, To: n2, Class: graph.Residential, Lanes: 1})
	g := b.Build()
	w := g.CopyWeights()
	p := MustNew(g, w, n0, []graph.EdgeID{0, 1})
	// Equal lengths: mean of 3 and 1.
	if got := MeanLanes(g, p); math.Abs(got-2) > 0.01 {
		t.Errorf("mean lanes = %f, want 2", got)
	}
	if got := MeanLanes(g, MustNew(g, w, n0, nil)); got != 0 {
		t.Errorf("empty path mean lanes = %f, want 0", got)
	}
}

func TestSharedPrefixLen(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	if got := SharedPrefixLen(top, top); got != len(top.Edges) {
		t.Errorf("self prefix = %d, want %d", got, len(top.Edges))
	}
	if got := SharedPrefixLen(top, bottom); got != 0 {
		t.Errorf("diverging-at-start prefix = %d, want 0", got)
	}
}

func TestDedup(t *testing.T) {
	n := 6
	g := ladder(n)
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	got := Dedup([]Path{top, bottom, top, bottom, top})
	if len(got) != 2 {
		t.Fatalf("dedup kept %d, want 2", len(got))
	}
	if !Equal(got[0], top) || !Equal(got[1], bottom) {
		t.Error("dedup should preserve first-seen order")
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Error("dedup of nil should be empty")
	}
}

func TestOverlapPropertyRandomSubpaths(t *testing.T) {
	n := 10
	g := ladder(n)
	w := g.CopyWeights()
	full := topPath(t, g, n)
	if err := quick.Check(func(rawStart, rawLen uint8) bool {
		start := int(rawStart) % len(full.Edges)
		length := 1 + int(rawLen)%(len(full.Edges)-start)
		sub := MustNew(g, w, full.Nodes[start], full.Edges[start:start+length])
		inter, union := Overlap(g, full, sub)
		// A subpath's overlap with the full path is its own length.
		if math.Abs(inter-sub.LengthM) > 1e-6 {
			return false
		}
		return math.Abs(union-full.LengthM) < 1e-6
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUnionShare(t *testing.T) {
	n := 6
	g := ladder(n)
	w := g.CopyWeights()
	top := topPath(t, g, n)
	bottom := bottomViaPath(t, g, n)
	if got := UnionShare(g, top, nil); got != 0 {
		t.Errorf("empty set share = %f, want 0", got)
	}
	if got := UnionShare(g, MustNew(g, w, 0, nil), []Path{top}); got != 0 {
		t.Errorf("empty path share = %f, want 0", got)
	}
	if got := UnionShare(g, top, []Path{top}); math.Abs(got-1) > 1e-9 {
		t.Errorf("self share = %f, want 1", got)
	}
	if got := UnionShare(g, top, []Path{bottom}); got != 0 {
		t.Errorf("disjoint share = %f, want 0", got)
	}
	// A path half on the top street, half new, against {top}: the shared
	// fraction equals the shared length over the path length.
	half := MustNew(g, w, 0, top.Edges[:len(top.Edges)/2])
	if got := UnionShare(g, half, []Path{top}); math.Abs(got-1) > 1e-9 {
		t.Errorf("subpath share = %f, want 1", got)
	}
	// Share against a set is monotone: adding paths can only increase it.
	s1 := UnionShare(g, bottom, []Path{top})
	s2 := UnionShare(g, bottom, []Path{top, bottom})
	if s2 < s1 {
		t.Errorf("adding a set member decreased share: %f -> %f", s1, s2)
	}
}

// randomWalk follows up to steps random out-edges of g from start.
func randomWalk(g *graph.Graph, w []float64, rng *rand.Rand, start graph.NodeID, steps int) Path {
	edges := []graph.EdgeID{}
	cur := start
	for i := 0; i < steps; i++ {
		out := g.OutEdges(cur)
		if len(out) == 0 {
			break
		}
		e := out[rng.Intn(len(out))]
		edges = append(edges, e)
		cur = g.Edge(e).To
	}
	return MustNew(g, w, start, edges)
}

func TestUnionShareBoundsJaccard(t *testing.T) {
	// For any candidate p and set P: Jaccard(p, q) ≤ UnionShare(p, P) for
	// every q in P — the property the Dissimilarity planner relies on.
	n := 8
	g := ladder(n)
	w := g.CopyWeights()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		p := randomWalk(g, w, rng, graph.NodeID(rng.Intn(2*n)), 1+rng.Intn(12))
		set := []Path{
			randomWalk(g, w, rng, graph.NodeID(rng.Intn(2*n)), 1+rng.Intn(12)),
			randomWalk(g, w, rng, graph.NodeID(rng.Intn(2*n)), 1+rng.Intn(12)),
		}
		share := UnionShare(g, p, set)
		for _, q := range set {
			if j := Jaccard(g, p, q); j > share+1e-9 {
				t.Fatalf("Jaccard %f exceeds union share %f", j, share)
			}
		}
	}
}

func TestLocalOptimality(t *testing.T) {
	n := 8
	g := ladder(n)
	w := g.CopyWeights()
	// The true shortest path is locally optimal at any window.
	edges, d := sp.ShortestPath(g, w, 0, graph.NodeID(n-1))
	best := MustNew(g, w, 0, edges)
	if got := CheckLocalOptimality(g, w, best, d); got > 1+1e-9 {
		t.Errorf("shortest path local-optimality ratio = %f, want 1", got)
	}
	if !IsLocallyOptimal(g, w, best, d, 0.001) {
		t.Error("shortest path must be locally optimal")
	}
	// A path with a pointless down-and-up detour is not.
	detourEdges := []graph.EdgeID{
		g.FindEdge(0, graph.NodeID(n)), // down
		g.FindEdge(graph.NodeID(n), graph.NodeID(n+1)),
		g.FindEdge(graph.NodeID(n+1), 1), // back up
	}
	for i := 1; i+1 < n; i++ {
		detourEdges = append(detourEdges, g.FindEdge(graph.NodeID(i), graph.NodeID(i+1)))
	}
	detour := MustNew(g, w, 0, detourEdges)
	if got := CheckLocalOptimality(g, w, detour, detour.TimeS); got <= 1+1e-9 {
		t.Errorf("detour path local-optimality ratio = %f, want > 1", got)
	}
	if IsLocallyOptimal(g, w, detour, detour.TimeS, 0.01) {
		t.Error("detour path must not be locally optimal at full window")
	}
	// Trivial paths are vacuously optimal.
	if got := CheckLocalOptimality(g, w, MustNew(g, w, 0, nil), 100); got != 1 {
		t.Errorf("empty path ratio = %f, want 1", got)
	}

	// IsLocallyOptimal stops at the first window over the tolerance; it
	// must still agree with the worst ratio over every window. Random
	// walks on randomly weighted ladders give ratios on both sides of each
	// tolerance, and some tolerances sit exactly on a path's worst ratio.
	rng := rand.New(rand.NewSource(23))
	g = ladder(12)
	over := 0
	for i := 0; i < 300; i++ {
		w := g.CopyWeights()
		for e := range w {
			w[e] *= 0.5 + rng.Float64()
		}
		p := randomWalk(g, w, rng, graph.NodeID(rng.Intn(g.NumNodes())), 2+rng.Intn(14))
		window := p.TimeS * (0.2 + rng.Float64())
		ratio := CheckLocalOptimality(g, w, p, window)
		for _, tol := range []float64{0, 0.01, 0.2 * rng.Float64(), rng.Float64(), ratio - 1} {
			if got, want := IsLocallyOptimal(g, w, p, window, tol), ratio <= 1+tol; got != want {
				t.Fatalf("walk %d, window %.1f s, tolerance %g: IsLocallyOptimal = %v, worst ratio %g", i, window, tol, got, ratio)
			}
			if ratio > 1+tol {
				over++
			}
		}
	}
	if over == 0 {
		t.Fatal("no random walk exceeded a tolerance; the rows test nothing")
	}
}

func BenchmarkJaccard(b *testing.B) {
	n := 200
	g := ladder(n)
	w := g.CopyWeights()
	e1, _ := sp.ShortestPath(g, w, 0, graph.NodeID(n-1))
	p1 := MustNew(g, w, 0, e1)
	p2 := bottomViaPathBench(g, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(g, p1, p2)
	}
}

func bottomViaPathBench(g *graph.Graph, n int) Path {
	w := g.CopyWeights()
	edges := []graph.EdgeID{g.FindEdge(0, graph.NodeID(n))}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, g.FindEdge(graph.NodeID(n+i), graph.NodeID(n+i+1)))
	}
	edges = append(edges, g.FindEdge(graph.NodeID(2*n-1), graph.NodeID(n-1)))
	return MustNew(g, w, 0, edges)
}
