package sp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/graph"
)

// gridGraph builds a rows×cols grid of two-way residential streets with
// ~100 m spacing, a worst case of many equal-cost paths.
func gridGraph(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, rows*cols*4)
	origin := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(origin, float64(r)*100, float64(c)*100))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: graph.Residential, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}

// randGraph builds a random graph that may be disconnected.
func randGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	origin := geo.Point{Lat: -37.81, Lon: 144.96}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(origin, rng.Float64()*5000, rng.Float64()*5000))
	}
	m := n * 3
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(graph.EdgeSpec{
			From:     u,
			To:       v,
			Class:    graph.RoadClass(rng.Intn(7)),
			SpeedKmh: 20 + rng.Float64()*80,
			TwoWay:   rng.Intn(3) > 0,
		})
	}
	return b.Build()
}

// bellmanFord is the O(V·E) reference distance computation.
func bellmanFord(g *graph.Graph, w []float64, s graph.NodeID) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	for iter := 0; iter < g.NumNodes(); iter++ {
		changed := false
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			if nd := dist[ed.From] + w[e]; nd < dist[ed.To] {
				dist[ed.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func pathCost(w []float64, edges []graph.EdgeID) float64 {
	var c float64
	for _, e := range edges {
		c += w[e]
	}
	return c
}

// checkConnected verifies edges form a contiguous s->t walk.
func checkWalk(t *testing.T, g *graph.Graph, edges []graph.EdgeID, s, dst graph.NodeID) {
	t.Helper()
	cur := s
	for i, e := range edges {
		ed := g.Edge(e)
		if ed.From != cur {
			t.Fatalf("edge %d starts at %d, expected %d", i, ed.From, cur)
		}
		cur = ed.To
	}
	if cur != dst {
		t.Fatalf("walk ends at %d, expected %d", cur, dst)
	}
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randGraph(seed, 120)
		w := g.CopyWeights()
		s := graph.NodeID(int(seed) % g.NumNodes())
		want := bellmanFord(g, w, s)
		tree := BuildTree(g, w, s, Forward)
		for v := 0; v < g.NumNodes(); v++ {
			if math.Abs(tree.Dist[v]-want[v]) > 1e-6 &&
				!(math.IsInf(tree.Dist[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("seed %d: dist[%d] = %f, bellman-ford %f", seed, v, tree.Dist[v], want[v])
			}
		}
	}
}

func TestBackwardTreeEqualsForwardOnReverse(t *testing.T) {
	g := randGraph(3, 100)
	w := g.CopyWeights()
	root := graph.NodeID(17)
	back := BuildTree(g, w, root, Backward)
	// Backward dist[v] must equal forward shortest path v->root.
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		_, d := ShortestPath(g, w, v, root)
		if math.Abs(back.Dist[v]-d) > 1e-6 && !(math.IsInf(back.Dist[v], 1) && math.IsInf(d, 1)) {
			t.Fatalf("backward dist[%d] = %f, want forward %f", v, back.Dist[v], d)
		}
	}
}

func TestTreePathReconstruction(t *testing.T) {
	g := gridGraph(8, 8)
	w := g.CopyWeights()
	s := graph.NodeID(0)
	dst := graph.NodeID(g.NumNodes() - 1)
	tree := BuildTree(g, w, s, Forward)
	edges := tree.PathTo(g, dst)
	if edges == nil {
		t.Fatal("grid should be connected")
	}
	checkWalk(t, g, edges, s, dst)
	if c := pathCost(w, edges); math.Abs(c-tree.Dist[dst]) > 1e-6 {
		t.Errorf("path cost %f != tree dist %f", c, tree.Dist[dst])
	}
	// Path to the root itself is empty, not nil.
	if p := tree.PathTo(g, s); p == nil || len(p) != 0 {
		t.Errorf("path to root should be empty, got %v", p)
	}
}

func TestBackwardTreePathReconstruction(t *testing.T) {
	g := gridGraph(6, 6)
	w := g.CopyWeights()
	root := graph.NodeID(g.NumNodes() - 1)
	tree := BuildTree(g, w, root, Backward)
	src := graph.NodeID(0)
	edges := tree.PathTo(g, src)
	if edges == nil {
		t.Fatal("grid should be connected")
	}
	// Backward tree paths run src -> root.
	checkWalk(t, g, edges, src, root)
	if c := pathCost(w, edges); math.Abs(c-tree.Dist[src]) > 1e-6 {
		t.Errorf("path cost %f != tree dist %f", c, tree.Dist[src])
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := gridGraph(3, 3)
	w := g.CopyWeights()
	p, d := ShortestPath(g, w, 4, 4)
	if d != 0 || p == nil || len(p) != 0 {
		t.Errorf("s==t should give empty path at cost 0, got %v at %f", p, d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	// Two disconnected components.
	b := graph.NewBuilder(4, 2)
	o := geo.Point{Lat: 0, Lon: 0}
	n0 := b.AddNode(o)
	n1 := b.AddNode(geo.Offset(o, 100, 0))
	n2 := b.AddNode(geo.Offset(o, 0, 5000))
	n3 := b.AddNode(geo.Offset(o, 100, 5000))
	b.AddEdge(graph.EdgeSpec{From: n0, To: n1, Class: graph.Residential, TwoWay: true})
	b.AddEdge(graph.EdgeSpec{From: n2, To: n3, Class: graph.Residential, TwoWay: true})
	g := b.Build()
	w := g.CopyWeights()
	p, d := ShortestPath(g, w, n0, n3)
	if p != nil || !math.IsInf(d, 1) {
		t.Errorf("unreachable target should give (nil, +Inf), got %v at %f", p, d)
	}
	p, d = BidirectionalShortestPath(g, w, n0, n3)
	if p != nil || !math.IsInf(d, 1) {
		t.Errorf("bidirectional: unreachable should give (nil, +Inf), got %v at %f", p, d)
	}
}

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randGraph(100+seed, 150)
		w := g.CopyWeights()
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 30; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			_, want := ShortestPath(g, w, s, dst)
			got, gotD := BidirectionalShortestPath(g, w, s, dst)
			if math.IsInf(want, 1) {
				if !math.IsInf(gotD, 1) {
					t.Fatalf("seed %d q %d: bidi found %f, dijkstra says unreachable", seed, q, gotD)
				}
				continue
			}
			if math.Abs(gotD-want) > 1e-6 {
				t.Fatalf("seed %d q %d (%d->%d): bidi %f, dijkstra %f", seed, q, s, dst, gotD, want)
			}
			checkWalk(t, g, got, s, dst)
			if c := pathCost(w, got); math.Abs(c-gotD) > 1e-6 {
				t.Fatalf("bidi path cost %f != reported %f", c, gotD)
			}
		}
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randGraph(200+seed, 150)
		w := g.CopyWeights()
		scale := MinSecondsPerMeter(g, w)
		if scale <= 0 {
			t.Fatalf("seed %d: expected positive heuristic scale", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 20; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			_, want := ShortestPath(g, w, s, dst)
			got, gotD := AStarShortestPath(g, w, s, dst, scale)
			if math.IsInf(want, 1) != math.IsInf(gotD, 1) {
				t.Fatalf("seed %d q %d: reachability mismatch", seed, q)
			}
			if !math.IsInf(want, 1) {
				if math.Abs(gotD-want) > 1e-6 {
					t.Fatalf("seed %d q %d: A* %f, dijkstra %f", seed, q, gotD, want)
				}
				checkWalk(t, g, got, s, dst)
			}
		}
	}
}

// nearTieGraph is a diamond s(0)→a(1)→t(3), s→b(2)→t whose two routes
// differ by 1e-7 s, far below 1e-12 of a's potential: a search trusting
// a potential that overestimates by that much reaches t through b first.
func nearTieGraph() (*graph.Graph, []float64) {
	b := graph.NewBuilder(4, 4)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	for i := 0; i < 4; i++ {
		b.AddNode(geo.Offset(o, float64(i)*100, 0))
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		b.AddEdge(graph.EdgeSpec{From: e[0], To: e[1], Class: graph.Residential})
	}
	g := b.Build()
	w := make([]float64, g.NumEdges())
	for e := range w {
		switch ed := g.Edge(graph.EdgeID(e)); [2]graph.NodeID{ed.From, ed.To} {
		case [2]graph.NodeID{0, 1}:
			w[e] = 1
		case [2]graph.NodeID{1, 3}, [2]graph.NodeID{0, 2}:
			w[e] = 1e6
		case [2]graph.NodeID{2, 3}:
			w[e] = 1 + 1e-7
		}
	}
	return g, w
}

// TestPotentialSearchMatchesDijkstra pins PotentialShortestPathInto to
// ShortestPathInto: the same distance to the bit under a zero potential
// (then also the same edges), the exact backward-tree potential, and that
// potential overestimating by a relative 1e-12, which the margin must
// absorb; with and without +Inf bans. Nodes whose potential is +Inf are
// never touched, an unreachable t gives (nil, +Inf) and s == t the empty
// path.
func TestPotentialSearchMatchesDijkstra(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		w    []float64
	}
	var insts []instance
	for seed := int64(0); seed < 4; seed++ {
		g := randGraph(300+seed, 150)
		insts = append(insts, instance{fmt.Sprintf("random%d", seed), g, g.CopyWeights()})
	}
	grid := gridGraph(12, 12)
	insts = append(insts, instance{"grid", grid, grid.CopyWeights()})
	tie, tieW := nearTieGraph()
	insts = append(insts, instance{"near-tie", tie, tieW})
	for _, in := range insts {
		banned := append([]float64(nil), in.w...)
		rng := rand.New(rand.NewSource(int64(len(in.name))))
		for e := range banned {
			if rng.Float64() < 0.1 {
				banned[e] = math.Inf(1)
			}
		}
		for _, wv := range []struct {
			name string
			w    []float64
		}{{"open", in.w}, {"bans", banned}} {
			g, w := in.g, wv.w
			ws, ref := NewWorkspace(), NewWorkspace()
			n := g.NumNodes()
			pairs := [][2]graph.NodeID{{0, graph.NodeID(n - 1)}}
			for q := 0; q < 25; q++ {
				pairs = append(pairs, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
			}
			for qi, q := range pairs {
				s, dst := q[0], q[1]
				label := fmt.Sprintf("%s/%s/q%d (%d->%d)", in.name, wv.name, qi, s, dst)
				wantEdges, want := ShortestPathInto(ref, g, w, s, dst)
				exact := BuildTree(g, w, dst, Backward).Dist
				over := make([]float64, n)
				for v, d := range exact {
					over[v] = d * (1 + 1e-12)
				}
				for _, pc := range []struct {
					name string
					pot  []float64
				}{{"zero", make([]float64, n)}, {"exact", exact}, {"over", over}} {
					edges, d := PotentialShortestPathInto(ws, g, w, s, dst, pc.pot)
					if math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("%s/%s: distance %v, Dijkstra %v", label, pc.name, d, want)
					}
					if math.IsInf(want, 1) {
						if edges != nil {
							t.Fatalf("%s/%s: unreachable target returned edges %v", label, pc.name, edges)
						}
						continue
					}
					checkWalk(t, g, edges, s, dst)
					if c := pathCost(w, edges); math.Float64bits(c) != math.Float64bits(d) {
						t.Fatalf("%s/%s: path costs %v, reported %v", label, pc.name, c, d)
					}
					if pc.name == "zero" && !slices.Equal(edges, wantEdges) {
						t.Fatalf("%s: zero potential took %v, Dijkstra %v", label, edges, wantEdges)
					}
					if pc.name == "exact" && s != dst {
						for v := graph.NodeID(0); int(v) < n; v++ {
							if math.IsInf(exact[v], 1) && ws.F.Touched(v) {
								t.Fatalf("%s: node %d cannot reach the target but was touched", label, v)
							}
						}
					}
				}
			}
		}
	}

	// s == t is the empty path; a source whose potential is +Inf returns
	// at once.
	g := gridGraph(4, 4)
	w := g.CopyWeights()
	ws := NewWorkspace()
	pot := BuildTree(g, w, 5, Backward).Dist
	if edges, d := PotentialShortestPathInto(ws, g, w, 5, 5, pot); edges == nil || len(edges) != 0 || d != 0 {
		t.Fatalf("s == t: got (%v, %v), want the empty path at 0", edges, d)
	}
	pot = append([]float64(nil), pot...)
	pot[0] = math.Inf(1)
	if edges, d := PotentialShortestPathInto(ws, g, w, 0, 5, pot); edges != nil || !math.IsInf(d, 1) {
		t.Fatalf("source with +Inf potential: got (%v, %v), want (nil, +Inf)", edges, d)
	}
}

func TestAStarZeroHeuristicIsDijkstra(t *testing.T) {
	g := gridGraph(5, 5)
	w := g.CopyWeights()
	_, want := ShortestPath(g, w, 0, 24)
	_, got := AStarShortestPath(g, w, 0, 24, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("A* with zero potential = %f, dijkstra = %f", got, want)
	}
}

func TestPerturbedWeightsChangeRoutes(t *testing.T) {
	g := gridGraph(5, 5)
	w := g.CopyWeights()
	base, baseD := ShortestPath(g, w, 0, 24)
	// Penalize every edge of the base path heavily: the new path must avoid
	// at least one of them (the grid offers alternatives).
	w2 := g.CopyWeights()
	for _, e := range base {
		w2[e] *= 10
	}
	alt, altD := ShortestPath(g, w2, 0, 24)
	if altD >= baseD*10 {
		t.Errorf("penalized route should dodge penalties: alt %f vs base %f", altD, baseD)
	}
	same := len(alt) == len(base)
	if same {
		for i := range alt {
			if alt[i] != base[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("route should change when its edges are penalized on a grid")
	}
}

func TestTreeDistMonotoneAlongPath(t *testing.T) {
	g := gridGraph(7, 7)
	w := g.CopyWeights()
	tree := BuildTree(g, w, 0, Forward)
	edges := tree.PathTo(g, graph.NodeID(g.NumNodes()-1))
	var acc float64
	cur := graph.NodeID(0)
	for _, e := range edges {
		acc += w[e]
		cur = g.Edge(e).To
		if math.Abs(tree.Dist[cur]-acc) > 1e-6 {
			t.Fatalf("prefix cost %f != tree dist %f at node %d", acc, tree.Dist[cur], cur)
		}
	}
}

func TestMinSecondsPerMeter(t *testing.T) {
	g := gridGraph(3, 3)
	w := g.CopyWeights()
	scale := MinSecondsPerMeter(g, w)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if w[e] < scale*ed.LengthM-1e-9 {
			t.Fatalf("edge %d violates lower bound: %f < %f", e, w[e], scale*ed.LengthM)
		}
	}
	empty := graph.NewBuilder(1, 0)
	empty.AddNode(geo.Point{})
	if got := MinSecondsPerMeter(empty.Build(), nil); got != 0 {
		t.Errorf("edgeless graph scale = %f, want 0", got)
	}
}

func TestHeapProperty(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		h := newNodeHeap(len(vals))
		clean := make([]float64, 0, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Push(graph.NodeID(i), v)
			clean = append(clean, v)
		}
		sort.Float64s(clean)
		for _, want := range clean {
			_, got := h.Pop()
			if got != want {
				return false
			}
		}
		return h.Len() == 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapReset(t *testing.T) {
	h := newNodeHeap(4)
	h.Push(1, 5)
	h.Push(2, 3)
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("after Reset Len = %d, want 0", h.Len())
	}
	h.Push(3, 1)
	v, p := h.Pop()
	if v != 3 || p != 1 {
		t.Errorf("heap reuse after Reset broken: got (%d, %f)", v, p)
	}
}

func BenchmarkBuildTreeGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTree(g, w, 0, Forward)
	}
}

func BenchmarkShortestPathGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	dst := graph.NodeID(g.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPath(g, w, 0, dst)
	}
}

func BenchmarkBidirectionalGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	dst := graph.NodeID(g.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BidirectionalShortestPath(g, w, 0, dst)
	}
}

func BenchmarkAStarGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	scale := MinSecondsPerMeter(g, w)
	dst := graph.NodeID(g.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AStarShortestPath(g, w, 0, dst, scale)
	}
}
