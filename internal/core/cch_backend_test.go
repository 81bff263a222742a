package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// The CCH half of the tree-backend claim: planners on the customizable
// hierarchy return byte-identical route sets to the Dijkstra backend on
// tie-free networks — and keep doing so for *any* published snapshot,
// including heavy closures.

func TestPlateausCCHMatchesDijkstraBackend(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomRoadNetwork(seed+500, 150)
		dij := NewPlateaus(g, Options{})
		cchP := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH})
		comparePlannersExact(t, dij, cchP, g, 12, seed)
	}
}

func TestCommercialCCHMatchesFullTrees(t *testing.T) {
	g := randomRoadNetwork(301, 150)
	private := traffic.Apply(g, traffic.DefaultModel(33))
	full := NewCommercial(g, private, Options{})
	cchC := NewCommercial(g, private, Options{TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH})
	comparePlannersExact(t, full, cchC, g, 12, 5)
}

// TestCCHServingExactUnderClosures pins the acceptance criterion through
// the whole serving stack: after publishing a heavy-closure snapshot to a
// live store, the CCH-backed planner's route sets stay byte-identical to
// the Dijkstra backend's — no re-contraction, only the triangle
// customization the publish triggered.
func TestCCHServingExactUnderClosures(t *testing.T) {
	g := randomRoadNetwork(55, 150)
	store := weights.NewStore(g.BaseWeights())
	cchP := NewPlateaus(g, Options{Weights: store, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH})
	dij := NewPlateaus(g, Options{Weights: store})
	router := NewRouter(NewEngine(2), []Planner{cchP, dij}, store)

	rng := rand.New(rand.NewSource(8))
	var closed []graph.EdgeID
	for len(closed) < g.NumEdges()/12 {
		closed = append(closed, graph.EdgeID(rng.Intn(g.NumEdges())))
	}
	store.Ban(closed...)
	// And a ±50% congestion republish on top of the closures.
	next := make([]float64, len(g.BaseWeights()))
	for i, w := range g.BaseWeights() {
		next[i] = w * (0.5 + rng.Float64())
	}
	store.Publish(next)
	router.Sync()

	if v := cchP.WeightsVersion(); v != store.Version() {
		t.Fatalf("post-sync CCH planner at version %d, store at %d", v, store.Version())
	}
	comparePlannersExact(t, dij, cchP, g, 12, 9)
}

// TestHierarchyStatusReporting covers the observability seam the server
// logs per query: the kind of hierarchy actually serving and
// customization latencies, per planner. It also pins that the
// cch-perfect flavor survives every publish: each version of a perfect
// planner sweeps fewer arcs than the same version of a plain cch planner
// (perfect customization drops dominated pairs from the sweeps), and
// ViewBytes counts what each version owns — a plain view its four slot
// columns (32 B per swept pair) and its inert mask (1 B per pair), a
// perfect view the columns plus the private CSR it sweeps (an offset per
// position and two int32s per kept pair), never the order, positions or
// elimination tree it shares.
func TestHierarchyStatusReporting(t *testing.T) {
	g := testCity(t)
	store := weights.NewStore(g.BaseWeights())
	perfect := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCHPerfect, Weights: store})
	cchP := NewPlateaus(g, Options{TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH, Weights: store})
	dij := NewPlateaus(g, Options{Weights: store})

	if st := perfect.HierarchyStatus(); st.Kind != "cch" || st.LastCustomize <= 0 {
		t.Fatalf("cch-perfect status = %+v, want kind cch with positive latency", st)
	}
	if st := cchP.HierarchyStatus(); st.Kind != "cch" || st.LastCustomize <= 0 {
		t.Fatalf("cch status = %+v, want kind cch with positive latency", st)
	}
	if st := dij.HierarchyStatus(); st.Kind != "" || st.LastCustomize != 0 {
		t.Fatalf("dijkstra-backend status = %+v, want zero", st)
	}
	sweepArcs := func(pl *Plateaus) int {
		return pl.prov.cur.Load().trees.(*cchTrees).tb.NumSweepArcs()
	}
	checkPerfect := func(when string) {
		t.Helper()
		p, c := sweepArcs(perfect), sweepArcs(cchP)
		if p >= c {
			t.Fatalf("%s: cch-perfect planner sweeps %d arcs, cch planner %d; want fewer", when, p, c)
		}
		if got, want := cchP.HierarchyStatus().ViewBytes, 33*c; got != want {
			t.Fatalf("%s: cch view reports %d B, want %d B of columns and inert mask", when, got, want)
		}
		if got, want := perfect.HierarchyStatus().ViewBytes, 32*p+4*(g.NumNodes()+1)+8*p; got != want {
			t.Fatalf("%s: cch-perfect view reports %d B, want %d B of columns and private CSR", when, got, want)
		}
	}
	checkPerfect("at construction")

	router := NewRouter(nil, []Planner{perfect, cchP, dij, NewPenalty(g, Options{})}, store)
	sts := router.HierarchyStatuses()
	if len(sts) != 4 {
		t.Fatalf("HierarchyStatuses length %d, want 4", len(sts))
	}
	if sts[0].Kind != "cch" || sts[1].Kind != "cch" || sts[2].Kind != "" || sts[3].Kind != "" {
		t.Fatalf("statuses = %+v", sts)
	}

	next := make([]float64, len(g.BaseWeights()))
	rng := rand.New(rand.NewSource(17))
	for i, w := range g.BaseWeights() {
		next[i] = w * (1 + 0.3*rng.Float64())
	}
	store.Publish(next)
	router.Sync()
	for _, pl := range []*Plateaus{perfect, cchP} {
		if v := pl.WeightsVersion(); v != store.Version() {
			t.Fatalf("post-sync planner at version %d, store at %d", v, store.Version())
		}
	}
	checkPerfect("after a publish")
}

// TestConcurrentPublishWithBatchQueriesCCH is the CCH twin of the
// live-serving race smoke CI runs under -race: rush-hour publishes and
// closures land while the engine answers rounds of concurrent queries
// across CCH-backed planners, and the post-sync state must match a planner built fresh at
// the final snapshot.
func TestConcurrentPublishWithBatchQueriesCCH(t *testing.T) {
	g := randomRoadNetwork(37, 120)
	pubStore := weights.NewStore(g.BaseWeights())
	seq := traffic.NewSequence(g, traffic.DefaultModel(5), 8)
	privStore := weights.NewStore(seq.WeightsAt(0))

	cchOpts := Options{Weights: pubStore, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH}
	planners := []Planner{
		NewPlateaus(g, cchOpts),
		NewPlateaus(g, Options{Weights: pubStore}),
		NewCommercial(g, nil, Options{Weights: privStore, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH}),
	}
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
			if i == publishes/2 {
				// A closure mid-churn: the CCH swap must stay exact through it.
				pubStore.Ban(graph.EdgeID(rng.Intn(g.NumEdges())))
			}
		}
	}()

	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 10; round++ {
		for _, res := range concurrentQueries(router.Engine(), planners, g, rng, 3) {
			for _, r := range res {
				if r.Err != nil && r.Err != ErrNoRoute {
					t.Fatalf("query under publish churn: %v", r.Err)
				}
			}
		}
	}
	wg.Wait()
	router.Sync()

	// Steady state: the CCH planner must agree exactly with a fresh
	// Dijkstra-backend planner pinned at the final snapshot — the
	// "arbitrary snapshot, no re-contraction" guarantee.
	fresh := NewPlateaus(g, Options{Weights: pubStore.Latest()})
	comparePlannersExact(t, fresh, planners[0].(*Plateaus), g, 6, 3)
	if v := planners[0].(*Plateaus).WeightsVersion(); v != pubStore.Version() {
		t.Fatalf("post-sync version %d != store version %d", v, pubStore.Version())
	}
}

// TestCCHRecustomizeChainStaysExact follows several publishes through one
// provider (each Customize reuses the frozen contraction) and checks the
// final distances against ground truth — there is no drift across swaps.
func TestCCHRecustomizeChainStaysExact(t *testing.T) {
	g := randomRoadNetwork(71, 120)
	store := weights.NewStore(g.BaseWeights())
	pl := NewPlateaus(g, Options{Weights: store, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCH})
	rng := rand.New(rand.NewSource(6))
	var final []float64
	for step := 0; step < 4; step++ {
		next := make([]float64, len(g.BaseWeights()))
		for i, w := range g.BaseWeights() {
			next[i] = w * (0.5 + rng.Float64())
			if rng.Intn(20) == 0 {
				next[i] = math.Inf(1)
			}
		}
		store.Publish(next)
		final = next
	}
	pl.prov.refreshSync()
	fresh := NewPlateaus(g, Options{Weights: weights.Pin(final)})
	comparePlannersExact(t, fresh, pl, g, 8, 11)
}

// TestStudyProvidersShareTopology pins the precondition of the engine's
// joint passes: on ch-auto a study set's public and traffic providers hold
// one ch.Topology pointer, at construction and after publishes on both
// stores, while their weight columns stay their own. A cch-perfect study
// set packs a private topology per version instead, and shares no joint
// slot.
func TestStudyProvidersShareTopology(t *testing.T) {
	g := randomRoadNetwork(707, 150)
	topology := func(pl Planner) *ch.Topology {
		return sweepBuilder(pl.source().cur.Load().trees).Topology()
	}
	pub := weights.NewStore(g.BaseWeights())
	priv := weights.NewStore(traffic.Apply(g, traffic.DefaultModel(7)))
	planners := NewStudyPlanners(g, Options{Weights: pub, TreeBackend: TreeCHAuto}, priv)
	router := NewRouter(NewEngine(1), planners[:], pub, priv)
	shared := topology(planners[1])
	check := func(when string) {
		t.Helper()
		for _, pl := range planners {
			if topology(pl) != shared {
				t.Fatalf("%s: %s sweeps a topology of its own", when, pl.Name())
			}
		}
		if sweepBuilder(planners[0].source().cur.Load().trees) == sweepBuilder(planners[1].source().cur.Load().trees) {
			t.Fatalf("%s: the public and traffic views share one builder", when)
		}
	}
	check("at construction")
	scaled := g.CopyWeights()
	for e := range scaled {
		scaled[e] *= 1.25
	}
	pub.Publish(scaled)
	priv.Ban(1, 2, 3)
	router.Sync()
	if v := router.ServingVersions(); v[0] != 2 || v[1] != 2 {
		t.Fatalf("serving versions %v after one publish per store, want 2 on both stores", v)
	}
	check("after publishes")

	perfect := NewStudyPlanners(g, Options{Weights: pub, TreeBackend: TreeCHAuto, Hierarchy: HierarchyCCHPerfect}, priv)
	if topology(perfect[0]) == topology(perfect[1]) || topology(perfect[1]) == shared {
		t.Fatal("cch-perfect views share a sweep topology")
	}
	if perfect[0].source().joint != nil || perfect[1].source().joint != nil {
		t.Fatal("cch-perfect providers share a joint slot")
	}
}

// TestJointSlotFollowsServingViews pins the lifetime of a city's joint
// topology: the first miss on a pair of serving views builds and caches
// the joint of exactly those builders; the traffic store's ViewBytes then
// counts it once (an offset per position and 52 B per kept pair) on top
// of its own columns; a publish on either store empties the slot, so it
// never keeps a superseded builder reachable, also when a query that
// pinned the old view finishes its joint after the swap; and the next
// miss caches the joint of the new views.
func TestJointSlotFollowsServingViews(t *testing.T) {
	g := testCity(t)
	pub := weights.NewStore(g.BaseWeights())
	priv := weights.NewStore(traffic.Apply(g, traffic.DefaultModel(5)))
	planners := NewStudyPlanners(g, Options{Weights: pub, TreeBackend: TreeCHAuto}, priv)
	router := NewRouter(NewEngine(2), planners[:], pub, priv)
	router.Engine().SetCache(0)
	js := planners[1].source().joint
	if js == nil || planners[0].source().joint != js {
		t.Fatal("the study set's public and traffic providers share no joint slot")
	}
	public, trafficP := planners[1].source(), planners[0].source()
	status := func() (pubBytes, trafficBytes int) {
		return planners[1].(*Plateaus).HierarchyStatus().ViewBytes, planners[0].(*Commercial).HierarchyStatus().ViewBytes
	}
	check := func(when string, wantCached bool) {
		t.Helper()
		j := js.cur.Load()
		pb, tb := status()
		if !wantCached {
			if j != nil {
				t.Fatalf("%s: the slot holds a joint", when)
			}
			if pb != tb {
				t.Fatalf("%s: public view %d B, traffic view %d B, want equal without a joint", when, pb, tb)
			}
			return
		}
		if j == nil {
			t.Fatalf("%s: the slot is empty", when)
		}
		if a, b := j.Builders(); a != public.servingBuilder() || b != trafficP.servingBuilder() {
			t.Fatalf("%s: the cached joint is not of the serving builders", when)
		}
		if want := 4*(g.NumNodes()+1) + 52*j.NumPairs(); j.MemoryBytes() != want || tb != pb+want {
			t.Fatalf("%s: joint %d B (want %d), traffic view %d B, public view %d B", when, j.MemoryBytes(), want, tb, pb)
		}
	}
	check("at construction", false)
	router.Engine().Alternatives(planners[:], 0, 143)
	check("after a miss", true)

	oldPublic := public.servingBuilder()
	scaled := g.CopyWeights()
	for e := range scaled {
		scaled[e] *= 1.25
	}
	pub.Publish(scaled)
	router.Sync()
	check("after a public publish", false)
	js.get(oldPublic, trafficP.servingBuilder()) // a query that pinned the old view
	check("after a stale joint", false)
	router.Engine().Alternatives(planners[:], 5, 130)
	check("after the next miss", true)
	priv.Ban(1, 2, 3)
	router.Sync()
	check("after a traffic publish", false)
}
