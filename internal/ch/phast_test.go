package ch_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
)

// The tentpole property: PHAST trees are indistinguishable from Dijkstra
// trees. Dist must match exactly (same reachability, same values up to
// float summation order), and Parent must be cost-equivalent: an original
// edge adjacent to the node whose endpoints' distances differ by exactly
// the edge weight, chaining back to the root.

const distTol = 1e-9 // relative; shortcut weights are pre-summed, so
// association order of the float additions can differ from Dijkstra's
// left-to-right fold by a few ulps.

func distEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= distTol*scale
}

// checkTreeEquivalence verifies got (a PHAST tree) against want (the
// Dijkstra tree with identical root/dir) on g under weights.
func checkTreeEquivalence(t *testing.T, g *graph.Graph, weights []float64, got, want *sp.Tree) {
	t.Helper()
	if got.Root != want.Root || got.Dir != want.Dir {
		t.Fatalf("tree header mismatch: root %d/%d dir %d/%d", got.Root, want.Root, got.Dir, want.Dir)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !distEqual(got.Dist[v], want.Dist[v]) {
			t.Fatalf("root %d dir %d node %d: CH dist %v, dijkstra %v", got.Root, got.Dir, v, got.Dist[v], want.Dist[v])
		}
		if !got.Reached(v) {
			if got.Parent[v] != -1 {
				t.Fatalf("node %d unreachable but parent %d", v, got.Parent[v])
			}
			continue
		}
		if v == got.Root {
			if got.Parent[v] != -1 {
				t.Fatalf("root %d has parent %d", v, got.Parent[v])
			}
			continue
		}
		// Parent cost-equivalence: the recorded original edge must be
		// adjacent with the right orientation and lie on a shortest path.
		e := got.Parent[v]
		if e < 0 {
			t.Fatalf("reached node %d has no parent", v)
		}
		ed := g.Edge(e)
		var prev graph.NodeID
		if got.Dir == sp.Forward {
			if ed.To != v {
				t.Fatalf("forward parent edge %d of node %d ends at %d", e, v, ed.To)
			}
			prev = ed.From
		} else {
			if ed.From != v {
				t.Fatalf("backward parent edge %d of node %d starts at %d", e, v, ed.From)
			}
			prev = ed.To
		}
		if !distEqual(got.Dist[prev]+weights[e], got.Dist[v]) {
			t.Fatalf("node %d parent edge %d not on a shortest path: %v + %v != %v",
				v, e, got.Dist[prev], weights[e], got.Dist[v])
		}
	}
	// Parent chains must reconstruct to the root for every reached node.
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !got.Reached(v) {
			continue
		}
		if got.PathTo(g, v) == nil && v != got.Root {
			t.Fatalf("node %d reached but PathTo failed", v)
		}
	}
}

func checkBothTrees(t *testing.T, g *graph.Graph, weights []float64, tb *ch.TreeBuilder, root graph.NodeID) {
	t.Helper()
	for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
		got := tb.BuildTree(root, dir)
		want := sp.BuildTree(g, weights, root, dir)
		checkTreeEquivalence(t, g, weights, got, want)
	}
}

func TestTreeBuilderMatchesDijkstraGrid(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	tb := build(g, w).NewTreeBuilder()
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 12; q++ {
		checkBothTrees(t, g, w, tb, graph.NodeID(rng.Intn(g.NumNodes())))
	}
}

func TestTreeBuilderMatchesDijkstraRandomDirected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomCity(seed, 150)
		w := g.CopyWeights()
		tb := build(g, w).NewTreeBuilder()
		rng := rand.New(rand.NewSource(seed + 77))
		for q := 0; q < 8; q++ {
			checkBothTrees(t, g, w, tb, graph.NodeID(rng.Intn(g.NumNodes())))
		}
	}
}

// TestTreeBuilderBannedEdges pins the +Inf ban semantics: a hierarchy
// built on weights with banned edges must produce trees that never cross
// them, matching Dijkstra's reachability exactly.
func TestTreeBuilderBannedEdges(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomCity(seed+20, 120)
		w := g.CopyWeights()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < g.NumEdges()/5; i++ {
			w[rng.Intn(g.NumEdges())] = math.Inf(1)
		}
		tb := build(g, w).NewTreeBuilder()
		for q := 0; q < 6; q++ {
			checkBothTrees(t, g, w, tb, graph.NodeID(rng.Intn(g.NumNodes())))
		}
	}
}

// TestTreeBuilderZeroAlloc asserts the headline PHAST property: with a
// warm workspace, the upward search + downward sweep allocate nothing.
func TestTreeBuilderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	w := g.CopyWeights()
	tb := build(g, w).NewTreeBuilder()
	ws := sp.NewWorkspace()
	root := graph.NodeID(g.NumNodes() / 2)
	for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
		tb.BuildTreeInto(ws, root, dir) // warm up
		if allocs := testing.AllocsPerRun(20, func() { tb.BuildTreeInto(ws, root, dir) }); allocs > 0 {
			t.Errorf("BuildTreeInto dir %d: %v allocs/op after warm-up, want 0", dir, allocs)
		}
	}
}

// TestTreeBuilderConcurrent drives one shared TreeBuilder from many
// goroutines (as core.Engine does); run with -race to verify immutability.
func TestTreeBuilderConcurrent(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	tb := build(g, w).NewTreeBuilder()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			ws := sp.NewWorkspace()
			for q := 0; q < 20; q++ {
				root := graph.NodeID(rng.Intn(g.NumNodes()))
				tree := tb.BuildTreeInto(ws, root, sp.Forward)
				if tree.Dist[root] != 0 {
					done <- errDistRoot
					return
				}
			}
			done <- nil
		}(int64(i))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errDistRoot = errRoot{}

type errRoot struct{}

func (errRoot) Error() string { return "root distance nonzero" }

func BenchmarkTreePHASTGrid40(b *testing.B) {
	g := gridCity(40, 40)
	w := g.CopyWeights()
	tb := build(g, w).NewTreeBuilder()
	ws := sp.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BuildTreeInto(ws, 0, sp.Forward)
	}
}

func BenchmarkTreeDijkstraGrid40(b *testing.B) {
	g := gridCity(40, 40)
	w := g.CopyWeights()
	ws := sp.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.BuildTreeInto(ws, g, w, 0, sp.Forward)
	}
}

// TestTreeBuilderCollectableAfterOneGC pins that the scratch pools keep no
// builder alive: serving supersedes a builder on every weight publish, and
// the first garbage collection after its last use must free it. (A pool
// owned by the builder would stay registered with the runtime, and the
// builder reachable, until a second collection.)
func TestTreeBuilderCollectableAfterOneGC(t *testing.T) {
	g := gridCity(8, 8)
	tb := cch.PreprocessShared(g).CustomizeWith(g.BaseWeights(), cch.Config{}).NewTreeBuilder()
	ws := sp.GetWorkspace()
	tb.BuildTreeInto(ws, 0, sp.Forward)
	sel := tb.Select([]graph.NodeID{5, 9, 30}, nil)
	tb.BuildTreeRestrictedInto(ws, 0, sp.Backward, sel)
	ws.Release()
	ref := weak.Make(tb)
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a builder used for full and restricted sweeps survived a collection after its last use")
	}
}
