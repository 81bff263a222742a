package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/spatial"
)

// TestSelectionCacheAlternatingHotPairs pins the fix for the
// selection-cache thrash bug: a single-slot cache let two alternating hot
// target sets evict each other forever, so every table paid a full
// Select. The multi-entry cache keys by target set and holds both sets'
// entries, so after each set's first miss every later table hits.
func TestSelectionCacheAlternatingHotPairs(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(42, 150)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	sources := sampleNodes(g, 2, 1)
	sets := [][]graph.NodeID{sampleNodes(g, 3, 2), sampleNodes(g, 3, 3)}

	const rounds = 20
	var tab Table
	for i := 0; i < rounds; i++ {
		for _, targets := range sets {
			if err := m.MatrixInto(&tab, sources, targets); err != nil {
				t.Fatal(err)
			}
			if !tab.Restricted {
				t.Fatal("hot target sets ran full sweeps; their selections went unused")
			}
		}
	}
	st := m.HierarchyStatus()
	hits, misses := st.SelectionHits, st.SelectionMisses
	total := hits + misses
	if total != 2*rounds {
		t.Fatalf("selection lookups = %d, want %d", total, 2*rounds)
	}
	if misses > 2 {
		t.Fatalf("alternating hot target sets: misses = %d, want at most one cold miss per set (2)", misses)
	}
	if rate := float64(hits) / float64(total); rate < 0.90 {
		t.Fatalf("alternating hot target sets: hit rate = %.2f (hits=%d misses=%d), want >= 0.90", rate, hits, misses)
	}
	if st.SelectionEvictions != 0 {
		t.Fatalf("two hot entries must fit the default budget; got %d evictions", st.SelectionEvictions)
	}
}

// TestSelectionCacheEviction drives a degenerate one-entry-per-shard
// budget (0 bytes) through many distinct target sets and checks the clock
// hand actually evicts: the entry count stays bounded by the shard count
// while the eviction counter climbs.
func TestSelectionCacheEviction(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(43, 200)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	tr := m.prov.view().trees.(*cchTrees)
	tr.cache = newSelectionCache(0, tr.stats)
	sources := sampleNodes(g, 2, 1)

	var tab Table
	for seed := int64(0); seed < 12; seed++ {
		if err := m.MatrixInto(&tab, sources, sampleNodes(g, 2, 100+seed)); err != nil {
			t.Fatal(err)
		}
		if !tab.Restricted {
			t.Fatal("distinct target sets ran full sweeps; their selections went unused")
		}
	}
	if n := tr.cache.entryCount(); n > selCacheShards {
		t.Fatalf("degenerate budget holds %d entries, want <= %d (one per shard)", n, selCacheShards)
	}
	st := m.HierarchyStatus()
	if st.SelectionEvictions == 0 && st.SelectionMisses > selCacheShards {
		t.Fatalf("%d misses on a one-entry-per-shard cache produced no evictions", st.SelectionMisses)
	}
}

// TestSelectionCacheSupersetHit checks the covering probe: once a target
// set's selection is cached, a table whose targets are a subset of it
// reuses the covering selection instead of building its own — and stays
// exact on it.
func TestSelectionCacheSupersetHit(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(44, 150)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	sources := sampleNodes(g, 3, 1)
	targets := sampleNodes(g, 6, 2)

	var tab Table
	if err := m.MatrixInto(&tab, sources, targets); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(targets); k++ {
		sub := targets[:k]
		if err := m.MatrixInto(&tab, sources, sub); err != nil {
			t.Fatal(err)
		}
		if !tab.Restricted || !tab.SelectionHit {
			t.Fatalf("subset of %d targets: restricted=%v hit=%v, want a covering hit", k, tab.Restricted, tab.SelectionHit)
		}
		requireTableEqual(t, &tab, dijkstraMatrix(g, g.BaseWeights(), sources, sub), "covering hit")
	}
	if st := m.HierarchyStatus(); st.SelectionMisses != 1 || st.SelectionHits != uint64(len(targets)-1) {
		t.Fatalf("selection lookups: %d hits, %d misses; want %d hits after one miss", st.SelectionHits, st.SelectionMisses, len(targets)-1)
	}
}

// TestMatrixSelectionIsItsTargets pins the selection key: a table selects
// exactly its distinct targets (a duplicate counts once), and a later
// table over a node that merely shares a spatial grid cell with a cached
// target misses instead of reusing that selection. Both tables stay
// exact.
func TestMatrixSelectionIsItsTargets(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(45, 150)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	grid := spatial.NewIndex(g, 0)
	var a, b graph.NodeID = -1, -1
	for c := 0; c < grid.NumCells() && a < 0; c++ {
		if nodes := grid.CellNodes(c); len(nodes) >= 2 {
			a, b = nodes[0], nodes[1]
		}
	}
	if a < 0 {
		t.Fatal("no grid cell holds two nodes")
	}
	targets := []graph.NodeID{a}
	for _, v := range sampleNodes(g, 4, 3) {
		if v != a && v != b && len(targets) < 3 {
			targets = append(targets, v)
		}
	}
	targets = append(targets, a)
	sources := sampleNodes(g, 3, 1)

	var tab Table
	if err := m.MatrixInto(&tab, sources, targets); err != nil {
		t.Fatal(err)
	}
	if !tab.Restricted || tab.SelectionHit || tab.SelectionTargets != 3 {
		t.Fatalf("3 targets plus a duplicate: restricted=%v hit=%v selectionTargets=%d, want a restricted miss on 3",
			tab.Restricted, tab.SelectionHit, tab.SelectionTargets)
	}
	requireTableEqual(t, &tab, dijkstraMatrix(g, g.BaseWeights(), sources, targets), "targets with a duplicate")

	cellMate := []graph.NodeID{b}
	if err := m.MatrixInto(&tab, sources, cellMate); err != nil {
		t.Fatal(err)
	}
	if tab.SelectionHit || tab.SelectionTargets != 1 {
		t.Fatalf("cell-mate of a cached target: hit=%v selectionTargets=%d, want a miss on 1", tab.SelectionHit, tab.SelectionTargets)
	}
	requireTableEqual(t, &tab, dijkstraMatrix(g, g.BaseWeights(), sources, cellMate), "cell-mate")
}
