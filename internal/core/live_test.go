package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// --- Refactor equivalence ---------------------------------------------------

// TestStoreBackedPlannersMatchPinned is the refactor's acceptance gate:
// for a fixed snapshot, a planner resolving weights from a live store
// must return byte-identical route sets to one pinned at construction
// (the pre-refactor behaviour), on both tree backends.
func TestStoreBackedPlannersMatchPinned(t *testing.T) {
	g := randomRoadNetwork(42, 150)
	store := weights.NewStore(g.BaseWeights())
	private := traffic.Apply(g, traffic.DefaultModel(9))
	privStore := weights.NewStore(private)

	for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
		pinnedOpts := Options{TreeBackend: backend}
		storeOpts := Options{TreeBackend: backend, Weights: store}
		cases := []struct {
			name           string
			pinned, stored Planner
		}{
			{"Plateaus", NewPlateaus(g, pinnedOpts), NewPlateaus(g, storeOpts)},
			{"Dissimilarity", NewDissimilarity(g, pinnedOpts), NewDissimilarity(g, storeOpts)},
			{"Penalty", NewPenalty(g, pinnedOpts), NewPenalty(g, storeOpts)},
			{"Commercial", NewCommercial(g, private, pinnedOpts),
				NewCommercial(g, nil, Options{TreeBackend: backend, Weights: privStore})},
		}
		for _, tc := range cases {
			comparePlannersExact(t, tc.pinned, tc.stored, g, 8, 77)
		}
	}
}

// --- Ban semantics across version swaps -------------------------------------

// banFastestRoute finds a query with a route and returns it along with
// the edges of the planner's first route (the ones we will close).
func banFastestRoute(t *testing.T, g *graph.Graph, pl Planner, seed int64) (s, dst graph.NodeID, edges []graph.EdgeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < 200; q++ {
		s = graph.NodeID(rng.Intn(g.NumNodes()))
		dst = graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		routes, err := pl.Alternatives(s, dst)
		if err != nil || len(routes) == 0 || len(routes[0].Edges) < 3 {
			continue
		}
		return s, dst, append([]graph.EdgeID(nil), routes[0].Edges...)
	}
	t.Fatal("no suitable query found")
	return
}

// TestBanSurvivesSnapshotSwap closes the fastest route's edges in
// snapshot N, then publishes a fresh traffic vector as snapshot N+1: the
// bans must still be impassable for every planner on both tree backends
// (the +Inf mask is re-applied by the store on every publish, and the CH
// backend must re-customize it into its hierarchy).
func TestBanSurvivesSnapshotSwap(t *testing.T) {
	g := randomRoadNetwork(5, 150)
	for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
		store := weights.NewStore(g.BaseWeights())
		opts := Options{TreeBackend: backend, Weights: store}
		planners := []Planner{
			NewPlateaus(g, opts),
			NewDissimilarity(g, opts),
			NewPenalty(g, opts),
			NewCommercial(g, nil, opts), // plans on the same store as its private metric
		}
		router := NewRouter(NewEngine(2), planners, store)

		s, dst, banned := banFastestRoute(t, g, planners[0], int64(backend)+11)
		store.Ban(banned...) // snapshot N: closures take effect

		// Snapshot N+1: a whole new (perturbed) weight vector, no mention
		// of the bans — the store must carry them forward.
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(99))
		for i, w := range g.BaseWeights() {
			next[i] = w * (1 + 0.3*rng.Float64())
		}
		store.Publish(next)
		router.Sync() // wait out the background re-customization

		isBanned := make(map[graph.EdgeID]bool, len(banned))
		for _, e := range banned {
			isBanned[e] = true
		}
		for _, pl := range planners {
			routes, err := pl.Alternatives(s, dst)
			if err == ErrNoRoute {
				continue // acceptable: the closure disconnected the pair for this planner
			}
			if err != nil {
				t.Fatalf("backend %v %s: %v", backend, pl.Name(), err)
			}
			for ri, r := range routes {
				if math.IsInf(r.TimeS, 1) {
					t.Errorf("backend %v %s route %d has infinite travel time", backend, pl.Name(), ri)
				}
				for _, e := range r.Edges {
					if isBanned[e] {
						t.Errorf("backend %v %s route %d uses banned edge %d after snapshot swap",
							backend, pl.Name(), ri, e)
					}
				}
			}
		}
	}
}

// --- Versioned result cache -------------------------------------------------

func TestEngineCacheVersionedHitsAndInvalidation(t *testing.T) {
	g := randomRoadNetwork(8, 150)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store})
	engine := NewEngine(2)
	router := NewRouter(engine, []Planner{pl}, store)

	s, dst, _ := banFastestRoute(t, g, pl, 3)
	first := askAll(router, s, dst)[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Version != 1 {
		t.Fatalf("first answer at version %d, want 1", first.Version)
	}
	again := askAll(router, s, dst)[0]
	hits, _ := engine.CacheStats()
	if hits == 0 {
		t.Fatal("repeat query did not hit the cache")
	}
	if len(again.Routes) != len(first.Routes) {
		t.Fatal("cached answer differs from computed answer")
	}
	for i := range first.Routes {
		if !path.Equal(first.Routes[i], again.Routes[i]) {
			t.Fatalf("cached route %d differs", i)
		}
	}

	// A publish invalidates: the same query recomputes under version 2.
	store.Publish(g.BaseWeights())
	router.Sync()
	after := askAll(router, s, dst)[0]
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	if after.Version != 2 {
		t.Fatalf("post-publish answer at version %d, want 2", after.Version)
	}
	// Identical weights were republished, so the routes themselves match.
	for i := range first.Routes {
		if !path.Equal(first.Routes[i], after.Routes[i]) {
			t.Fatalf("route %d changed across an identical-weights republish", i)
		}
	}
}

// TestRouterHonoursExplicitCacheDisable: SetCache(0) is a deliberate
// choice; the Router's default cache must only land on engines whose
// owner never called SetCache.
func TestRouterHonoursExplicitCacheDisable(t *testing.T) {
	g := testCity(t)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store})

	disabled := NewEngine(1)
	disabled.SetCache(0)
	router := NewRouter(disabled, []Planner{pl}, store)
	askAll(router, 0, graph.NodeID(g.NumNodes()-1))
	askAll(router, 0, graph.NodeID(g.NumNodes()-1))
	if hits, misses := disabled.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("explicitly disabled cache served traffic: %d hits / %d misses", hits, misses)
	}

	fresh := NewEngine(1)
	router.SetEngine(fresh) // never configured: gets the default cache
	askAll(router, 0, graph.NodeID(g.NumNodes()-1))
	if _, misses := fresh.CacheStats(); misses == 0 {
		t.Fatal("unconfigured engine did not get the router's default cache")
	}
}

// askAll answers one query with every planner of the router, the way
// eval.City.RunPlanners does.
func askAll(r *Router, s, t graph.NodeID) []Result {
	return r.Engine().Alternatives(r.Planners(), s, t)
}

// --- Double-buffered CH swap ------------------------------------------------

// TestCHSwapServesOldThenNew publishes a uniformly scaled snapshot and
// verifies that (a) queries before
// Sync never fail or block on the rebuild, and (b) after Sync the planner
// serves the new version with route sets identical to a from-scratch
// planner pinned at the new snapshot.
func TestCHSwapServesOldThenNew(t *testing.T) {
	g := randomRoadNetwork(21, 150)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Weights: store})
	router := NewRouter(NewEngine(2), []Planner{pl}, store)

	s, dst, _ := banFastestRoute(t, g, pl, 13)

	scaled := make([]float64, len(g.BaseWeights()))
	for i, w := range g.BaseWeights() {
		scaled[i] = 1.5 * w
	}
	store.Publish(scaled)
	// Mid-swap: the query must answer immediately under *some* version.
	res := askAll(router, s, dst)[0]
	if res.Err != nil || len(res.Routes) == 0 {
		t.Fatalf("mid-swap query failed: %v", res.Err)
	}
	if res.Version != 1 && res.Version != 2 {
		t.Fatalf("mid-swap version = %d, want 1 or 2", res.Version)
	}

	router.Sync()
	if v := pl.WeightsVersion(); v != 2 {
		t.Fatalf("post-sync version = %d, want 2", v)
	}
	fresh := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Weights: weights.Pin(scaled)})
	comparePlannersExact(t, fresh, pl, g, 8, 29)
}

// TestCustomizeFailureKeepsServing makes customizations of a ch-auto
// provider fail. First, two publishes carry a weight the customization
// rejects (NaN, then -1): each publish's background customization fails
// and is counted once, and routes and matrix tables keep answering at
// the old version (the retry each of them starts fails again). Then two
// injected panics: the publish's background customization fails, the
// process survives, queries keep answering on the old version, and the
// failure is counted. A later query retries (and fails again); once
// customization works, the provider serves the new version with the
// routes of a planner built fresh at it.
func TestCustomizeFailureKeepsServing(t *testing.T) {
	g := randomRoadNetwork(21, 150)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Weights: store})
	eng := NewEngine(2)
	router := NewRouter(eng, []Planner{pl}, store)
	mat := NewMatrixEngineFor(pl, eng)
	s, dst, _ := banFastestRoute(t, g, pl, 13)

	// waitFailures waits until n rebuilds have failed and none runs.
	waitFailures := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for pl.HierarchyStatus().CustomizeFailures < n || pl.prov.inflight.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("%d customization failures after 10s, want %d", pl.HierarchyStatus().CustomizeFailures, n)
			}
			time.Sleep(time.Millisecond)
		}
		if got := pl.HierarchyStatus().CustomizeFailures; got != n {
			t.Fatalf("%d customization failures, want %d", got, n)
		}
	}
	ask := func() {
		t.Helper()
		res := askAll(router, s, dst)[0]
		if res.Err != nil || len(res.Routes) == 0 {
			t.Fatalf("query failed after a failed customization: %v", res.Err)
		}
		if res.Version != 1 {
			t.Fatalf("answered at version %d, want the old version 1", res.Version)
		}
	}

	sources, targets := []graph.NodeID{s, dst}, []graph.NodeID{dst, s, 7}
	before, err := mat.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	askMatrix := func() {
		t.Helper()
		tab, err := mat.Matrix(sources, targets)
		if err != nil {
			t.Fatalf("matrix failed after a failed customization: %v", err)
		}
		if tab.Version != 1 {
			t.Fatalf("matrix answered at version %d, want the old version 1", tab.Version)
		}
		for i, sec := range tab.Seconds {
			if math.Float64bits(sec) != math.Float64bits(before.Seconds[i]) {
				t.Fatalf("matrix cell %d = %v after a failed customization, want %v", i, sec, before.Seconds[i])
			}
		}
	}

	// Two publishes the customization rejects: each fails once on its own
	// publish, and once more on the retry each of a route query and a
	// matrix table starts.
	failures := uint64(0)
	for _, bad := range []float64{math.NaN(), -1} {
		w := g.CopyWeights()
		w[len(w)/2] = bad
		store.Publish(w)
		failures++
		waitFailures(failures)
		ask()
		failures++
		waitFailures(failures)
		askMatrix()
		failures++
		waitFailures(failures)
	}

	// The next two customizations panic, standing in for a customization
	// that fails.
	var fails atomic.Int32
	fails.Store(2)
	customize := pl.prov.customize
	pl.prov.customize = func(w []float64) *ch.TreeBuilder {
		if fails.Add(-1) >= 0 {
			panic("injected customization failure")
		}
		return customize(w)
	}

	scaled := make([]float64, len(g.BaseWeights()))
	for i, w := range g.BaseWeights() {
		scaled[i] = 1.5 * w
	}
	store.Publish(scaled)
	waitFailures(failures + 1)
	ask() // still on version 1, and starts a retry
	waitFailures(failures + 2)
	ask()

	router.Sync()
	if v := pl.WeightsVersion(); v != 4 {
		t.Fatalf("post-sync version = %d, want 4", v)
	}
	if got := pl.HierarchyStatus().CustomizeFailures; got != failures+2 {
		t.Fatalf("%d customization failures after a working one, want %d", got, failures+2)
	}
	fresh := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Weights: weights.Pin(scaled)})
	comparePlannersExact(t, fresh, pl, g, 8, 29)
}

// --- Race smoke: publishes racing concurrent queries ------------------------

// concurrentQueries answers n random queries with every planner, as n
// concurrent Alternatives calls on e, and returns their results in query
// order.
func concurrentQueries(e *Engine, planners []Planner, g *graph.Graph, rng *rand.Rand, n int) [][]Result {
	results := make([][]Result, n)
	var wg sync.WaitGroup
	for q := range results {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[q] = e.Alternatives(planners, s, dst)
		}()
	}
	wg.Wait()
	return results
}

// TestConcurrentPublishWithBatchQueries is the live-serving smoke test CI
// runs under -race: a rush-hour producer publishes snapshots while the
// engine answers rounds of concurrent queries across all planners and both
// backends. Every answer must be a coherent single-version result (no torn
// reads, no panics), and the study planner set on ch-auto must answer
// every query with Plateaus, Dissimilarity and Penalty at one public
// version — by construction, with no barrier or retry (Commercial plans
// on the traffic store and may differ). Correctness of the final state is
// pinned by a post-Sync equality check against a planner built fresh at
// the final snapshot.
func TestConcurrentPublishWithBatchQueries(t *testing.T) {
	g := randomRoadNetwork(31, 120)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(4), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	opts := Options{Weights: pubStore}
	chOpts := Options{Weights: pubStore, TreeBackend: TreeCHAuto}
	planners := []Planner{
		NewPlateaus(g, opts),
		NewPlateaus(g, chOpts),
		NewDissimilarity(g, opts),
		NewPenalty(g, opts),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCHAuto}),
	}
	study := NewStudyPlanners(g, chOpts, privStore)
	planners = append(planners, study[:]...)
	engine := NewEngine(4)
	router := NewRouter(engine, planners, pubStore, privStore)

	const publishes = 6
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < publishes; i++ {
			seq.Advance(privStore)
			for j, w := range g.BaseWeights() {
				next[j] = w * (1 + 0.2*rng.Float64())
			}
			pubStore.Publish(next)
		}
	}()

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 10; round++ {
		results := concurrentQueries(router.Engine(), planners, g, rng, 3)
		for q, res := range results {
			for _, r := range res {
				if r.Err != nil && r.Err != ErrNoRoute {
					t.Fatalf("query under publish churn: %v", r.Err)
				}
			}
			// The study set closes the planner list: GMaps, then the
			// public-metric trio.
			pub := res[len(res)-3:]
			if pub[0].Version != pub[1].Version || pub[1].Version != pub[2].Version {
				t.Fatalf("round %d query %d: Plateaus/Dissimilarity/Penalty answered at public versions %d/%d/%d",
					round, q, pub[0].Version, pub[1].Version, pub[2].Version)
			}
		}
	}
	wg.Wait()
	router.Sync()

	// Steady state: the Dijkstra-backed store planner must now agree
	// exactly with a fresh planner pinned at the final snapshot.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, planners[0].(*Plateaus), g, 6, 3)
	if v := planners[0].(*Plateaus).WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}

// --- Matrix selection invalidation -------------------------------------------

// TestRestrictedSelectionInvalidatedOnPublish guards the RPHAST
// selection-reuse bug class: a cached matrix target selection must not
// survive a weight publish. A stale selection would either index the
// superseded tree builder's arcs (loud: the ch guard panics) or silently
// restrict the sweeps to the old metric's upward closure; in both cases
// the post-swap table would diverge from a matrix engine built fresh at
// the new snapshot.
func TestRestrictedSelectionInvalidatedOnPublish(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(17, 150)
	cases := []struct {
		name string
		next func(rng *rand.Rand) []float64
		ban  bool
	}{
		// Uniform scaling: the targets keep their cells, so only the
		// per-version cache keeps the old selection out.
		{"cch-uniform", func(_ *rand.Rand) []float64 {
			next := make([]float64, len(g.BaseWeights()))
			for i, w := range g.BaseWeights() {
				next[i] = 1.7 * w
			}
			return next
		}, false},
		// Arbitrary perturbation + a closure on the first pair's fastest
		// route: CCH customization stays exact, and reusing the old
		// selection would misprice the closed cells.
		{"cch-perturbed-banned", func(rng *rand.Rand) []float64 {
			next := make([]float64, len(g.BaseWeights()))
			for i, w := range g.BaseWeights() {
				next[i] = w * (0.5 + rng.Float64())
			}
			return next
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := weights.NewStore(g.BaseWeights())
			m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto, Weights: store}, nil)

			s, dst, firstRoute := banFastestRoute(t, g, NewPlateaus(g, Options{}), 23)
			sources := append([]graph.NodeID{s}, sampleNodes(g, 3, 5)...)
			targets := append([]graph.NodeID{dst}, sampleNodes(g, 3, 6)...)
			// Prime the target selection under version 1.
			var tab Table
			if err := m.MatrixInto(&tab, sources, targets); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(55))
			if tc.ban {
				store.Ban(firstRoute[0])
			}
			store.Publish(tc.next(rng))
			m.prov.refreshSync()

			if err := m.MatrixInto(&tab, sources, targets); err != nil {
				t.Fatal(err)
			}
			if tab.Version != store.Version() {
				t.Fatalf("post-publish table at version %d, store at %d", tab.Version, store.Version())
			}
			if !tab.Restricted {
				t.Fatal("post-publish table ran full sweeps; the selection path went untested")
			}
			if tab.SelectionHit {
				t.Fatal("post-publish table reused a selection from the superseded version")
			}
			if st := m.HierarchyStatus(); st.SelectionMisses != 2 || st.SelectionHits != 0 {
				t.Fatalf("selection lookups: %d hits, %d misses; want one miss per version", st.SelectionHits, st.SelectionMisses)
			}
			fresh, err := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto, Weights: store.Latest()}, nil).Matrix(sources, targets)
			if err != nil {
				t.Fatal(err)
			}
			requireTableBitEqual(t, &tab, fresh.Seconds, "post-publish vs fresh engine")
			requireTableEqual(t, &tab, dijkstraMatrix(g, store.Latest().Weights(), sources, targets), "post-publish vs dijkstra")
		})
	}
}

// --- Live-traffic soak: hierarchy sweeps under publish churn -----------------

// TestLiveTrafficSoakCHSweeps is the permanent safety net for the
// hierarchy backends (and every future backend) under live traffic: a
// deterministic rush-hour publish loop races engine batches with CCH
// sweeps on, and every answer must (a) carry a version the store
// actually published, (b) never walk an edge banned in an earlier
// version — the store re-applies the closure mask on every publish, and
// the hierarchies must carry it through each customization — and (c)
// never regress to an older version within one caller's sequence, which
// is exactly what a result cache serving a stale generation would look
// like. CI runs it under -race.
func TestLiveTrafficSoakCHSweeps(t *testing.T) {
	g := randomRoadNetwork(61, 140)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(7), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	planners := []Planner{
		NewPlateaus(g, Options{Weights: pubStore, TreeBackend: TreeCHAuto}),
		NewPlateaus(g, Options{Weights: pubStore, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCHPerfect}),
		NewDissimilarity(g, Options{Weights: pubStore}),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCHAuto}),
	}
	storeOf := map[Planner]*weights.Store{
		planners[0]: pubStore, planners[1]: pubStore, planners[2]: pubStore, planners[3]: privStore,
	}
	engine := NewEngine(4)
	router := NewRouter(engine, planners, pubStore, privStore)

	// Close the fastest route's edges on both metrics before the churn
	// starts: every raced answer is computed at a post-ban version and
	// must treat them as walls throughout the publish sequence.
	s0, t0, banned := banFastestRoute(t, g, planners[0], 3)
	_ = s0
	_ = t0
	pubStore.Ban(banned...)
	privStore.Ban(banned...)
	router.Sync()
	isBanned := make(map[graph.EdgeID]bool, len(banned))
	for _, e := range banned {
		isBanned[e] = true
	}

	const publishes = 6
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := make([]float64, len(g.BaseWeights()))
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < publishes; i++ {
			seq.Advance(privStore)
			for j, w := range g.BaseWeights() {
				next[j] = w * (1 + 0.3*rng.Float64())
			}
			pubStore.Publish(next)
		}
	}()

	var qwg sync.WaitGroup
	for worker := 0; worker < 3; worker++ {
		qwg.Add(1)
		go func(seed int64) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastSeen := make(map[Planner]weights.Version, len(planners))
			for round := 0; round < 8; round++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				for i, r := range router.Engine().Alternatives(planners, s, dst) {
					pl := planners[i]
					if r.Err != nil {
						if r.Err != ErrNoRoute {
							t.Errorf("%s under churn: %v", pl.Name(), r.Err)
						}
						continue
					}
					// (a) the version was actually published by this
					// planner's store (versions are dense 1..latest).
					if r.Version < 2 || r.Version > storeOf[pl].Version() {
						t.Errorf("%s answered at unpublished version %d (store at %d)",
							pl.Name(), r.Version, storeOf[pl].Version())
					}
					// (c) no caller ever observes a planner going back in
					// time — the stale-cache-generation signature.
					if r.Version < lastSeen[pl] {
						t.Errorf("%s regressed from version %d to %d (stale cache generation?)",
							pl.Name(), lastSeen[pl], r.Version)
					}
					lastSeen[pl] = r.Version
					// (b) bans from version 2 stay impassable forever.
					for ri, route := range r.Routes {
						if math.IsInf(route.TimeS, 1) {
							t.Errorf("%s route %d has infinite travel time", pl.Name(), ri)
						}
						for _, e := range route.Edges {
							if isBanned[e] {
								t.Errorf("%s route %d uses banned edge %d at version %d",
									pl.Name(), ri, e, r.Version)
							}
						}
					}
				}
			}
		}(int64(worker + 1))
	}
	qwg.Wait()
	wg.Wait()
	router.Sync()

	// Steady state: the CCH planner agrees byte-for-byte with a fresh
	// Dijkstra planner pinned at the final snapshot.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, planners[0].(*Plateaus), g, 6, 13)
	if v := planners[0].(*Plateaus).WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}
