package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// stubPlanner simulates a double-buffered planner for the cache
// generation tests. Its provider pins the graph's base weights (version
// weights.Pinned), so it never moves on its own: a test stands in for
// "background customization has completed" by installing a newer view by
// hand (serve).
type stubPlanner struct {
	versioned
	calls atomic.Int64
}

func newStubPlanner(g *graph.Graph) *stubPlanner {
	return &stubPlanner{versioned: versioned{newProvider(g, nil, false, Options{}, "stub")}}
}

func (s *stubPlanner) Name() string { return "stub" }

func (s *stubPlanner) Alternatives(a, b graph.NodeID) ([]path.Path, error) {
	return answer(s, a, b)
}

func (s *stubPlanner) alternativesOn(*view, graph.NodeID, graph.NodeID) ([]path.Path, error) {
	s.calls.Add(1)
	return []path.Path{{}}, nil
}

// serve installs snap as the provider's serving view, as a completed
// swap would.
func (s *stubPlanner) serve(snap *weights.Snapshot) { s.prov.cur.Store(&view{snap: snap}) }

// TestCachePerGenerationEviction pins the publish-time cache policy: a
// publish evicts only generations older than what each planner still
// serves, so a double-buffered planner keeps hitting its previous-version
// entries until its swap completes — and loses them on the publish after.
func TestCachePerGenerationEviction(t *testing.T) {
	g := testCity(t)
	store := weights.NewStore(g.BaseWeights())
	stub := newStubPlanner(g) // serves v1

	engine := NewEngine(1)
	engine.SetCache(32)
	router := NewRouter(engine, []Planner{stub}, store)
	_ = router

	query := func() {
		engine.Alternatives([]Planner{stub}, 0, 1)
	}
	query() // miss: seeds the version-1 entry
	if calls := stub.calls.Load(); calls != 1 {
		t.Fatalf("priming calls = %d, want 1", calls)
	}

	// Publish v2 while the stub still serves v1 (swap pending): the v1
	// entry must survive and keep answering without a planner call.
	store.Publish(g.BaseWeights())
	query()
	if calls := stub.calls.Load(); calls != 1 {
		t.Fatalf("post-publish calls = %d, want 1 (v1 entry must survive while v1 still serves)", calls)
	}
	if hits, _ := engine.CacheStats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}

	// The swap completes (stub now serves v2): the next publish evicts the
	// v1 generation, and a v2 lookup misses into a fresh planner call.
	stub.serve(store.Latest())
	store.Publish(g.BaseWeights())
	query()
	if calls := stub.calls.Load(); calls != 2 {
		t.Fatalf("post-swap calls = %d, want 2 (v1 generation must be gone, v2 is a miss)", calls)
	}
	// And the v2 entry serves repeats.
	query()
	if calls := stub.calls.Load(); calls != 2 {
		t.Fatalf("repeat calls = %d, want 2", calls)
	}
}

// TestEvictStaleScopesToPlanner: eviction must not touch planners outside
// the floors map.
func TestEvictStaleScopesToPlanner(t *testing.T) {
	g := testCity(t)
	a, b := newStubPlanner(g), newStubPlanner(g)
	c := newResultCache(8)
	c.put(cacheKey{planner: a, version: 1, s: 0, t: 1}, []path.Path{{}})
	c.put(cacheKey{planner: b, version: 1, s: 0, t: 1}, []path.Path{{}})
	c.evictStale(map[Planner]weights.Version{a: 2})
	if _, ok := c.get(cacheKey{planner: a, version: 1, s: 0, t: 1}); ok {
		t.Fatal("a's stale entry survived eviction")
	}
	if _, ok := c.get(cacheKey{planner: b, version: 1, s: 0, t: 1}); !ok {
		t.Fatal("b's entry was evicted by a's sweep")
	}
}
