package ch_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
)

// The RPHAST contract under test: a restricted build agrees with the full
// PHAST build exactly on every selected node, reports no garbage anywhere
// else, and parent chains of selected nodes reconstruct whenever every
// node of the shortest path is itself selected.

// checkRestrictedAgainstFull verifies restricted trees for one target set
// against full builds from the same builder.
func checkRestrictedAgainstFull(t *testing.T, g *graph.Graph, tb *ch.TreeBuilder, targets []graph.NodeID, root graph.NodeID) {
	t.Helper()
	sel := tb.Select(targets, nil)
	isTarget := make(map[graph.NodeID]bool, len(targets))
	for _, v := range targets {
		isTarget[v] = true
	}
	for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
		full := tb.BuildTree(root, dir)
		wsR := sp.NewWorkspace()
		got := tb.BuildTreeRestrictedInto(wsR, root, dir, sel)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if isTarget[v] {
				if !distEqual(got.Dist[v], full.Dist[v]) {
					t.Fatalf("dir %d target %d: restricted dist %v, full %v", dir, v, got.Dist[v], full.Dist[v])
				}
				if got.Reached(v) && v != root && got.Parent[v] != full.Parent[v] {
					t.Fatalf("dir %d target %d: restricted parent %d, full %d", dir, v, got.Parent[v], full.Parent[v])
				}
				continue
			}
			// Non-targets may be unreached, but whatever is reported must
			// equal the full build (the sweep set is a superset of the
			// targets, never an approximation).
			if got.Reached(v) && !distEqual(got.Dist[v], full.Dist[v]) {
				t.Fatalf("dir %d swept node %d: restricted dist %v, full %v", dir, v, got.Dist[v], full.Dist[v])
			}
		}
	}
}

func TestRestrictedTreeMatchesFullOnTargetsGrid(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		rng := rand.New(rand.NewSource(3))
		for q := 0; q < 8; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			targets := []graph.NodeID{root}
			for len(targets) < 24 {
				targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			checkRestrictedAgainstFull(t, g, tb, targets, root)
		}
	})
}

func TestRestrictedTreeMatchesFullOnTargetsRandomDirected(t *testing.T) {
	forEachEngine(t, func(t *testing.T, build builder) {
		for seed := int64(0); seed < 4; seed++ {
			g := randomCity(seed+40, 150)
			w := g.CopyWeights()
			tb := build(g, w).NewTreeBuilder()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 5; q++ {
				root := graph.NodeID(rng.Intn(g.NumNodes()))
				targets := []graph.NodeID{root}
				for len(targets) < 30 {
					targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
				}
				checkRestrictedAgainstFull(t, g, tb, targets, root)
			}
		}
	})
}

// TestRestrictedTreeBannedEdges pins the +Inf semantics: banned arcs are
// dropped from the restricted subgraph entirely, and target distances
// still match the full build (unreachable stays unreachable).
func TestRestrictedTreeBannedEdges(t *testing.T) {
	forEachEngine(t, func(t *testing.T, build builder) {
		g := randomCity(9, 120)
		w := g.CopyWeights()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < g.NumEdges()/5; i++ {
			w[rng.Intn(g.NumEdges())] = math.Inf(1)
		}
		tb := build(g, w).NewTreeBuilder()
		for q := 0; q < 6; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			targets := []graph.NodeID{root}
			for len(targets) < 25 {
				targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			checkRestrictedAgainstFull(t, g, tb, targets, root)
		}
	})
}

// TestSelectionReusedAcrossRoots is the RPHAST amortization: one
// selection, many roots — every build stays exact on the targets. It also
// verifies parent chains reconstruct when the whole graph is selected.
func TestSelectionReusedAcrossRoots(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		all := make([]graph.NodeID, g.NumNodes())
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		sel := tb.Select(all, nil)
		if f, b := sel.SweptNodes(); f != g.NumNodes() || b != g.NumNodes() {
			t.Fatalf("full-graph selection sweeps %d/%d nodes, want %d", f, b, g.NumNodes())
		}
		ws := sp.NewWorkspace()
		rng := rand.New(rand.NewSource(1))
		for q := 0; q < 6; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			got := tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
			want := sp.BuildTree(g, w, root, sp.Forward)
			checkTreeEquivalence(t, g, w, got.Clone(), want)
		}
	})
}

// TestSelectionReuseRebuild verifies Select with a reuse argument reuses
// the backing arrays and produces a correct fresh selection.
func TestSelectionReuseRebuild(t *testing.T) {
	g := gridCity(8, 8)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		sel := tb.Select([]graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, nil)
		sel = tb.Select([]graph.NodeID{10, 20, 30, 0, 63}, sel)
		if sel.Targets() != 5 {
			t.Fatalf("reused selection reports %d targets, want 5", sel.Targets())
		}
		checkRestrictedAgainstFull(t, g, tb, []graph.NodeID{10, 20, 30, 0, 63}, 0)
	})
}

// TestStaleSelectionPanics pins the misuse guard: a selection must not
// survive into a different TreeBuilder (the stale-selection-after-
// customize bug class the serving layer must never hit).
func TestStaleSelectionPanics(t *testing.T) {
	g := gridCity(6, 6)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		h := build(g, w)
		tb1 := h.NewTreeBuilder()
		tb2 := h.Customize(w).NewTreeBuilder()
		sel := tb1.Select([]graph.NodeID{0, 1, 2}, nil)
		defer func() {
			if recover() == nil {
				t.Fatal("restricted build with a stale selection did not panic")
			}
		}()
		ws := sp.NewWorkspace()
		tb2.BuildTreeRestrictedInto(ws, 0, sp.Forward, sel)
	})
}

// TestRestrictedZeroAlloc: with a warm workspace and a prebuilt
// selection, a restricted build allocates nothing; re-selecting onto a
// warm Selection allocates nothing either.
func TestRestrictedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		ws := sp.NewWorkspace()
		rng := rand.New(rand.NewSource(2))
		targets := make([]graph.NodeID, 0, 80)
		for len(targets) < 80 {
			targets = append(targets, graph.NodeID(rng.Intn(g.NumNodes())))
		}
		sel := tb.Select(targets, nil)
		root := targets[0]
		sweep := func() {
			tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
			tb.BuildTreeRestrictedInto(ws, root, sp.Backward, sel)
		}
		sweep()
		if allocs := testing.AllocsPerRun(20, sweep); allocs > 0 {
			t.Errorf("restricted tree pair: %v allocs/op after warm-up, want 0", allocs)
		}
		reselect := func() { tb.Select(targets, sel) }
		reselect()
		if allocs := testing.AllocsPerRun(20, reselect); allocs > 0 {
			t.Errorf("warm re-selection: %v allocs/op, want 0", allocs)
		}
	})
}

// TestSelectionMemoryBytes sanity-checks the cache charging measure: a
// bigger target set retains at least as many bytes, and nothing is free.
func TestSelectionMemoryBytes(t *testing.T) {
	g := gridCity(12, 12)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		small := tb.Select([]graph.NodeID{0, 1}, nil)
		all := make([]graph.NodeID, g.NumNodes())
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		big := tb.Select(all, nil)
		if small.MemoryBytes() <= 0 {
			t.Fatalf("small selection reports %d bytes", small.MemoryBytes())
		}
		if big.MemoryBytes() < small.MemoryBytes() {
			t.Fatalf("full-graph selection (%d B) smaller than 2-target selection (%d B)",
				big.MemoryBytes(), small.MemoryBytes())
		}
	})
}

// TestSelectExactSize pins the exact-size emit: a fresh selection's
// restricted CSR arrays carry no growth slack (cap == len), and the
// number of allocations of a fresh Select does not grow with the target
// set — every array is sized once from the closure pass's counts.
func TestSelectExactSize(t *testing.T) {
	g := gridCity(20, 20)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		rng := rand.New(rand.NewSource(5))
		pick := func(k int) []graph.NodeID {
			targets := make([]graph.NodeID, k)
			for i := range targets {
				targets[i] = graph.NodeID(rng.Intn(g.NumNodes()))
			}
			return targets
		}
		small, large := pick(4), pick(64)
		for _, targets := range [][]graph.NodeID{small, large} {
			sel := tb.Select(targets, nil)
			if slack := ch.SlackArrays(sel); len(slack) > 0 {
				t.Fatalf("fresh %d-target selection keeps growth slack in %v", len(targets), slack)
			}
			checkRestrictedAgainstFull(t, g, tb, targets, targets[0])
		}
		if raceEnabled {
			return
		}
		a4 := testing.AllocsPerRun(10, func() { tb.Select(small, nil) })
		a64 := testing.AllocsPerRun(10, func() { tb.Select(large, nil) })
		if a4 != a64 {
			t.Fatalf("fresh Select allocates %v times for k=4 but %v for k=64, want equal", a4, a64)
		}
	})
}

// TestRestrictedConcurrent shares one selection across goroutines (as the
// engine's workers share a cached selection); run under -race.
func TestRestrictedConcurrent(t *testing.T) {
	g := gridCity(10, 10)
	w := g.CopyWeights()
	forEachEngine(t, func(t *testing.T, build builder) {
		tb := build(g, w).NewTreeBuilder()
		all := make([]graph.NodeID, g.NumNodes())
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		sel := tb.Select(all, nil)
		done := make(chan error, 4)
		for i := 0; i < 4; i++ {
			go func(seed int64) {
				rng := rand.New(rand.NewSource(seed))
				ws := sp.NewWorkspace()
				for q := 0; q < 20; q++ {
					root := graph.NodeID(rng.Intn(g.NumNodes()))
					tree := tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sel)
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
	})
}
