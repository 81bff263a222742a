package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
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
}

// TestSelectionCacheBounded drives many distinct target sets through one
// engine: the cache never holds more than selRecent entries, and each of
// the last selRecent sets still hits on repeat. Every table stays exact.
func TestSelectionCacheBounded(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(43, 200)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	tr := m.prov.view().trees.(*cchTrees)
	sources := sampleNodes(g, 2, 1)

	const sets = 20
	var tab Table
	run := func(seed int64) {
		t.Helper()
		targets := sampleNodes(g, 3, 100+seed)
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			t.Fatal(err)
		}
		if !tab.Restricted {
			t.Fatal("distinct target sets ran full sweeps; their selections went unused")
		}
		requireTableEqual(t, &tab, dijkstraMatrix(g, g.BaseWeights(), sources, targets), "bounded cache")
	}
	for seed := int64(0); seed < sets; seed++ {
		run(seed)
	}
	if n := tr.cache.entryCount(); n > selRecent {
		t.Fatalf("cache holds %d entries after %d target sets, want <= %d", n, sets, selRecent)
	}
	for seed := int64(sets - selRecent); seed < sets; seed++ {
		run(seed)
		if !tab.SelectionHit {
			t.Fatalf("target set %d, one of the last %d, missed on repeat", seed, selRecent)
		}
	}
	if st := m.HierarchyStatus(); st.SelectionMisses != sets || st.SelectionHits != selRecent {
		t.Fatalf("selection lookups: %d hits, %d misses; want %d hits after %d misses",
			st.SelectionHits, st.SelectionMisses, selRecent, sets)
	}
}

// TestSelectionCacheConcurrentTables runs tables from several goroutines
// on one engine, each mixing repeats of a shared hot set with fresh
// target sets, so lookups, racing inserts and ring overwrites interleave
// (run under -race). Every table must equal the Dijkstra oracle.
func TestSelectionCacheConcurrentTables(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(46, 200)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, NewEngine(2))
	sources := sampleNodes(g, 3, 1)
	hot := sampleNodes(g, 4, 2)
	hotRef := dijkstraMatrix(g, g.BaseWeights(), sources, hot)

	const workers, rounds = 4, 12
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var tab Table
			for i := 0; i < rounds; i++ {
				targets, ref := hot, hotRef
				if i%2 == 1 {
					targets = sampleNodes(g, 4, int64(1000*w+i))
					ref = dijkstraMatrix(g, g.BaseWeights(), sources, targets)
				}
				if err := m.MatrixInto(&tab, sources, targets); err != nil {
					errs <- err
					return
				}
				for j := range ref {
					if !matrixDistEqual(tab.Seconds[j], ref[j]) {
						errs <- fmt.Errorf("worker %d round %d cell %d: %v, oracle %v", w, i, j, tab.Seconds[j], ref[j])
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	tr := m.prov.view().trees.(*cchTrees)
	if n := tr.cache.entryCount(); n > selRecent {
		t.Fatalf("cache holds %d entries, want <= %d", n, selRecent)
	}
	if st := m.HierarchyStatus(); st.SelectionHits+st.SelectionMisses != workers*rounds {
		t.Fatalf("selection lookups = %d, want %d", st.SelectionHits+st.SelectionMisses, workers*rounds)
	}
}

// TestFullSweepTableReportsNoSelection pins that a table above the
// cutover, which sweeps in full, reports no selection size and records
// no selection sample — yet a repeat still hits the full-sweep marker.
func TestFullSweepTableReportsNoSelection(t *testing.T) {
	withAutoFraction(t, 0)
	g := randomRoadNetwork(47, 150)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	met := NewMetrics(metrics.NewRegistry(), "grid")
	m.prov.metrics.Store(met)
	sources := sampleNodes(g, 2, 1)
	targets := sampleNodes(g, 3, 2)

	var tab Table
	for i := 0; i < 2; i++ {
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			t.Fatal(err)
		}
		if tab.Restricted || tab.SelectionTargets != 0 {
			t.Fatalf("table %d above the cutover: restricted=%v selectionTargets=%d, want full sweeps and 0",
				i, tab.Restricted, tab.SelectionTargets)
		}
		if hit := i == 1; tab.SelectionHit != hit {
			t.Fatalf("table %d above the cutover: hit=%v, want %v", i, tab.SelectionHit, hit)
		}
		requireTableEqual(t, &tab, dijkstraMatrix(g, g.BaseWeights(), sources, targets), "full sweeps")
	}
	if c := met.selectionNodes.Count(); c != 0 {
		t.Fatalf("full-sweep tables recorded %d selection samples, want 0", c)
	}
	if c := met.matrixCells.Count(); c != 2 {
		t.Fatalf("matrix tables recorded = %d, want 2", c)
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

// entryCount reports how many entries the cache currently holds.
func (c *selectionCache) entryCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.ring {
		if e != nil {
			n++
		}
	}
	return n
}
