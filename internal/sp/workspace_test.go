package sp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// treesEqual fails the test unless the two trees are byte-identical.
func treesEqual(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if want.Root != got.Root || want.Dir != got.Dir {
		t.Fatalf("%s: header mismatch: (%d,%d) vs (%d,%d)", label, want.Root, want.Dir, got.Root, got.Dir)
	}
	if len(want.Dist) != len(got.Dist) || len(want.Parent) != len(got.Parent) {
		t.Fatalf("%s: length mismatch", label)
	}
	for v := range want.Dist {
		wd, gd := want.Dist[v], got.Dist[v]
		if wd != gd && !(math.IsInf(wd, 1) && math.IsInf(gd, 1)) {
			t.Fatalf("%s: Dist[%d] = %v, want %v", label, v, gd, wd)
		}
		if want.Parent[v] != got.Parent[v] {
			t.Fatalf("%s: Parent[%d] = %d, want %d", label, v, got.Parent[v], want.Parent[v])
		}
	}
}

func edgesEqual(t *testing.T, want, got []graph.EdgeID, label string) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: nil-ness mismatch: want %v, got %v", label, want, got)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: edge %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestWorkspaceReuseMatchesFresh runs many repeated and interleaved
// searches on ONE workspace and requires every result to byte-match a
// fresh-allocation run — the core guarantee of the epoch-stamp reset.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	g := gridGraph(18, 18)
	w := g.CopyWeights()
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(7))
	n := g.NumNodes()
	for q := 0; q < 80; q++ {
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))

		// Interleave all search kinds on the same workspace so stale state
		// from any of them would poison the others.
		switch q % 4 {
		case 0:
			fresh := BuildTree(g, w, s, Forward)
			reused := BuildTreeInto(ws, g, w, s, Forward)
			treesEqual(t, fresh, reused, "forward tree")
		case 1:
			fresh := BuildTree(g, w, s, Backward)
			reused := BuildTreeInto(ws, g, w, s, Backward)
			treesEqual(t, fresh, reused, "backward tree")
		case 2:
			fe, fd := ShortestPath(g, w, s, d)
			re, rd := ShortestPathInto(ws, g, w, s, d)
			if fd != rd && !(math.IsInf(fd, 1) && math.IsInf(rd, 1)) {
				t.Fatalf("query %d: dist %v, want %v", q, rd, fd)
			}
			edgesEqual(t, fe, re, "shortest path")
		case 3:
			fe, fd := BidirectionalShortestPathInto(NewWorkspace(), g, w, s, d)
			re, rd := BidirectionalShortestPathInto(ws, g, w, s, d)
			if fd != rd && !(math.IsInf(fd, 1) && math.IsInf(rd, 1)) {
				t.Fatalf("query %d: bidi dist %v, want %v", q, rd, fd)
			}
			edgesEqual(t, fe, re, "bidirectional path")
		}
	}
}

// TestWorkspaceReuseDisconnected exercises reuse where large parts of the
// graph stay untouched between searches, the case the lazy reset could get
// wrong by leaking a previous query's distances.
func TestWorkspaceReuseDisconnected(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randGraph(seed, 120)
		w := g.CopyWeights()
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(seed + 99))
		for q := 0; q < 40; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			fresh := BuildTree(g, w, s, Forward)
			reused := BuildTreeInto(ws, g, w, s, Forward)
			treesEqual(t, fresh, reused, "disconnected tree")
		}
	}
}

// TestWorkspaceAStarAndPruned covers the two heuristic searches on a
// reused workspace.
func TestWorkspaceAStarAndPruned(t *testing.T) {
	g := gridGraph(15, 15)
	w := g.CopyWeights()
	scale := MinSecondsPerMeter(g, w)
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(11))
	n := g.NumNodes()
	for q := 0; q < 40; q++ {
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))
		if s == d {
			continue
		}
		fe, fd := AStarShortestPath(g, w, s, d, scale)
		re, rd := AStarShortestPathInto(ws, g, w, s, d, scale)
		if fd != rd {
			t.Fatalf("A* dist %v, want %v", rd, fd)
		}
		edgesEqual(t, fe, re, "A* path")

		_, sp := ShortestPath(g, w, s, d)
		maxCost := 1.4 * sp
		fresh := BuildPrunedTree(g, w, s, Forward, d, maxCost, scale)
		reused := BuildPrunedTreeInto(ws, g, w, s, Forward, d, maxCost, scale)
		treesEqual(t, fresh, reused, "pruned tree")
	}
}

// TestWorkspaceTreeSlots verifies a forward and a backward tree built on
// one workspace coexist (they live in separate slots).
func TestWorkspaceTreeSlots(t *testing.T) {
	g := gridGraph(12, 12)
	w := g.CopyWeights()
	ws := NewWorkspace()
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	fwd := BuildTreeInto(ws, g, w, s, Forward)
	bwd := BuildTreeInto(ws, g, w, d, Backward)
	treesEqual(t, BuildTree(g, w, s, Forward), fwd, "forward after backward")
	treesEqual(t, BuildTree(g, w, d, Backward), bwd, "backward")
	// Forward and backward sums accumulate in different orders, so allow
	// for float rounding when cross-checking the two trees.
	if math.Abs(fwd.Dist[d]-bwd.Dist[s]) > 1e-9 {
		t.Fatalf("tree distances disagree: %v vs %v", fwd.Dist[d], bwd.Dist[s])
	}
}

// TestIntoVariantsZeroAlloc asserts the workspace searches allocate
// nothing after warm-up — the property the serving layer's throughput
// rests on.
func TestIntoVariantsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridGraph(30, 30)
	w := g.CopyWeights()
	scale := MinSecondsPerMeter(g, w)
	ws := NewWorkspace()
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)

	warmAndCheck := func(name string, fn func()) {
		t.Helper()
		fn() // warm up: grow arrays, heap and path buffer once
		if allocs := testing.AllocsPerRun(10, fn); allocs > 0 {
			t.Errorf("%s: %v allocs/op after warm-up, want 0", name, allocs)
		}
	}
	warmAndCheck("BuildTreeInto", func() { BuildTreeInto(ws, g, w, s, Forward) })
	warmAndCheck("ShortestPathInto", func() { ShortestPathInto(ws, g, w, s, d) })
	warmAndCheck("BidirectionalShortestPathInto", func() { BidirectionalShortestPathInto(ws, g, w, s, d) })
	warmAndCheck("AStarShortestPathInto", func() { AStarShortestPathInto(ws, g, w, s, d, scale) })
	pot := BuildTree(g, w, d, Backward).Dist
	warmAndCheck("PotentialShortestPathInto", func() { PotentialShortestPathInto(ws, g, w, s, d, pot) })
	warmAndCheck("BuildPrunedTreeInto", func() {
		BuildPrunedTreeInto(ws, g, w, s, Forward, d, math.Inf(1), scale)
	})
}

// TestInfWeightsAreWalls pins the ban semantics Yen and ESX rely on:
// setting an edge weight to +Inf must make it impassable, so a target
// only reachable through banned edges reports (nil, +Inf) and trees never
// cross banned edges — exactly as with the old +Inf-filled dist arrays.
func TestInfWeightsAreWalls(t *testing.T) {
	// A 2-row corridor: 0-1-2 on top, 3-4-5 below, rungs between. Banning
	// both edges out of node 0 cuts the source off entirely.
	g := gridGraph(2, 3)
	w := g.CopyWeights()
	for _, e := range g.OutEdges(0) {
		w[e] = math.Inf(1)
	}
	ws := NewWorkspace()
	dst := graph.NodeID(g.NumNodes() - 1)

	edges, d := ShortestPathInto(ws, g, w, 0, dst)
	if edges != nil || !math.IsInf(d, 1) {
		t.Fatalf("banned source: got (%v, %v), want (nil, +Inf)", edges, d)
	}
	if edges, d := BidirectionalShortestPathInto(ws, g, w, 0, dst); edges != nil || !math.IsInf(d, 1) {
		t.Fatalf("banned source (bidi): got (%v, %v), want (nil, +Inf)", edges, d)
	}
	if edges, d := AStarShortestPathInto(ws, g, w, 0, dst, 0); edges != nil || !math.IsInf(d, 1) {
		t.Fatalf("banned source (A*): got (%v, %v), want (nil, +Inf)", edges, d)
	}
	tree := BuildTreeInto(ws, g, w, 0, Forward)
	for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
		if tree.Reached(v) {
			t.Fatalf("tree crossed a banned edge to reach node %d", v)
		}
	}
}

// TestEpochWraparound drives the generation counter across its uint32
// wraparound and checks results stay correct through the stamp-array
// re-zeroing.
func TestEpochWraparound(t *testing.T) {
	g := gridGraph(10, 10)
	w := g.CopyWeights()
	ws := NewWorkspace()
	BuildTreeInto(ws, g, w, 0, Forward) // size the arrays
	ws.F.cur = math.MaxUint32 - 8
	for i := 0; i < 8; i++ {
		s := graph.NodeID(i * 7 % g.NumNodes())
		treesEqual(t, BuildTree(g, w, s, Forward), BuildTreeInto(ws, g, w, s, Forward), "wraparound tree")
	}
}

// TestWorkspaceGrowsAcrossGraphs runs one workspace against graphs of
// different sizes; the arrays must grow without corrupting results.
func TestWorkspaceGrowsAcrossGraphs(t *testing.T) {
	ws := NewWorkspace()
	for _, dim := range []int{5, 20, 9, 30, 3} {
		g := gridGraph(dim, dim)
		w := g.CopyWeights()
		s := graph.NodeID(0)
		treesEqual(t, BuildTree(g, w, s, Forward), BuildTreeInto(ws, g, w, s, Forward), "grown tree")
	}
}

// --- workspace-variant microbenchmarks, mirroring the Grid50 set --------------

func BenchmarkBuildTreeIntoGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTreeInto(ws, g, w, 0, Forward)
	}
}

func BenchmarkShortestPathIntoGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	dst := graph.NodeID(g.NumNodes() - 1)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPathInto(ws, g, w, 0, dst)
	}
}

func BenchmarkBidirectionalIntoGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	dst := graph.NodeID(g.NumNodes() - 1)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BidirectionalShortestPathInto(ws, g, w, 0, dst)
	}
}

func BenchmarkAStarIntoGrid50(b *testing.B) {
	g := gridGraph(50, 50)
	w := g.CopyWeights()
	scale := MinSecondsPerMeter(g, w)
	dst := graph.NodeID(g.NumNodes() - 1)
	ws := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AStarShortestPathInto(ws, g, w, 0, dst, scale)
	}
}
