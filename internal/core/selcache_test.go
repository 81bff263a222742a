package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// findConnectedPairs samples distinct connected query pairs on g using a
// Dijkstra-backed probe planner, so tests exercising the restricted
// sweeps can pick their hot pairs without touching the selection stats
// under test.
func findConnectedPairs(t *testing.T, g *graph.Graph, want int, seed int64) [][2]graph.NodeID {
	t.Helper()
	probe := NewPlateaus(g, Options{})
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]graph.NodeID
	for attempts := 0; len(pairs) < want; attempts++ {
		if attempts > want*100 {
			t.Fatalf("could not sample %d connected pairs", want)
		}
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == d {
			continue
		}
		dup := false
		for _, p := range pairs {
			if p == [2]graph.NodeID{s, d} {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if _, err := probe.Alternatives(s, d); err != nil {
			continue
		}
		pairs = append(pairs, [2]graph.NodeID{s, d})
	}
	return pairs
}

// TestSelectionCacheAlternatingHotPairs pins the fix for the
// selection-cache thrash bug: the old single-slot cache keyed by the
// exact (s,t) pair let two alternating hot pairs evict each other
// forever, so every query paid a full Select (this test asserted 0 hits
// in 40 lookups when it pinned the bug). The multi-entry cache keys by
// cell signature and holds both pairs' entries, so after each pair's
// first miss every later query hits.
func TestSelectionCacheAlternatingHotPairs(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(42, 150)
	pairs := findConnectedPairs(t, g, 2, 1)
	p := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})

	const rounds = 20
	for i := 0; i < rounds; i++ {
		for _, q := range pairs {
			if _, err := p.Alternatives(q[0], q[1]); err != nil {
				t.Fatalf("query %d->%d: %v", q[0], q[1], err)
			}
		}
	}
	st := p.HierarchyStatus()
	total := st.SelectionHits + st.SelectionMisses
	if total != 2*rounds {
		t.Fatalf("selection lookups = %d, want %d", total, 2*rounds)
	}
	if st.SelectionMisses > 2 {
		t.Fatalf("alternating hot pairs: misses = %d, want at most one cold miss per pair (2)", st.SelectionMisses)
	}
	if rate := float64(st.SelectionHits) / float64(total); rate < 0.90 {
		t.Fatalf("alternating hot pairs: hit rate = %.2f (hits=%d misses=%d), want > 0.90", rate, st.SelectionHits, st.SelectionMisses)
	}
	if st.SelectionEvictions != 0 {
		t.Fatalf("two hot entries must fit the default budget; got %d evictions", st.SelectionEvictions)
	}
	if !st.LastRestricted {
		t.Fatal("hot pairs ran full sweeps; their selections went unused")
	}
}

// TestSelectionCacheEviction drives a degenerate one-entry-per-shard
// budget (0 bytes) through many distinct query pairs and checks the clock
// hand actually evicts: the entry count stays bounded by the shard count
// while the eviction counter climbs.
func TestSelectionCacheEviction(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(43, 200)
	pairs := findConnectedPairs(t, g, 12, 2)
	p := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})
	tr := p.prov.view().trees.(*restrictedTrees)
	tr.cache = newSelectionCache(0, tr.stats)

	for _, q := range pairs {
		if _, err := p.Alternatives(q[0], q[1]); err != nil {
			t.Fatalf("query %d->%d: %v", q[0], q[1], err)
		}
	}
	st := p.HierarchyStatus()
	if !st.LastRestricted {
		t.Fatal("distinct pairs ran full sweeps; their selections went unused")
	}
	if n := tr.cache.entryCount(); n > selCacheShards {
		t.Fatalf("degenerate budget holds %d entries, want <= %d (one per shard)", n, selCacheShards)
	}
	if st.SelectionEvictions == 0 && st.SelectionMisses > selCacheShards {
		t.Fatalf("%d misses on a one-entry-per-shard cache produced no evictions", st.SelectionMisses)
	}
}

// TestSelectionCacheSupersetHit checks the covering probe: once a query's
// cell union is cached, a second query whose union is a subset of it (and
// whose endpoints lie inside) reuses the covering selection instead of
// building its own.
func TestSelectionCacheSupersetHit(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(44, 150)
	pairs := findConnectedPairs(t, g, 6, 3)
	p := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})

	// Warm the cache with every pair, then replay: every replayed query's
	// signature is already resident (exact hit at worst), so the second
	// sweep must be all hits.
	for sweep := 0; sweep < 2; sweep++ {
		for _, q := range pairs {
			if _, err := p.Alternatives(q[0], q[1]); err != nil {
				t.Fatalf("query %d->%d: %v", q[0], q[1], err)
			}
		}
	}
	st := p.HierarchyStatus()
	if st.SelectionHits < uint64(len(pairs)) {
		t.Fatalf("replay sweep produced %d hits, want >= %d", st.SelectionHits, len(pairs))
	}
	if !st.LastRestricted {
		t.Fatal("replayed pairs ran full sweeps; their selections went unused")
	}
}
