package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/citygen"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
	"repro/internal/weights"
)

func routesEqual(t *testing.T, want, got []path.Path, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d routes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !path.Equal(want[i], got[i]) {
			t.Fatalf("%s: route %d differs", label, i)
		}
		if want[i].TimeS != got[i].TimeS {
			t.Fatalf("%s: route %d time %v, want %v", label, i, got[i].TimeS, want[i].TimeS)
		}
	}
}

// TestEngineMatchesSerial compares engine answers, one Alternatives call
// per query, against direct serial planner calls: same routes, same
// order, same errors.
func TestEngineMatchesSerial(t *testing.T) {
	g := testCity(t)
	planners := allPlanners(g, Options{})
	e := NewEngine(4)

	for q := 0; q < 10; q++ {
		s := graph.NodeID((q * 13) % g.NumNodes())
		d := graph.NodeID((q*29 + 7) % g.NumNodes())
		results := e.Alternatives(planners, s, d)
		if len(results) != len(planners) {
			t.Fatalf("got %d results for %d planners", len(results), len(planners))
		}
		for i, pl := range planners {
			want, wantErr := pl.Alternatives(s, d)
			if (wantErr == nil) != (results[i].Err == nil) {
				t.Fatalf("query %d, %s: err %v, want %v", q, pl.Name(), results[i].Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			routesEqual(t, want, results[i].Routes, "engine answer")
		}
	}
}

// TestEngineConcurrentHammer slams one engine (and therefore the shared
// workspace pool) from many goroutines at once and checks every result
// against a serial oracle. Run with -race this is the data-race guard for
// the whole workspace machinery.
func TestEngineConcurrentHammer(t *testing.T) {
	g := testCity(t)
	planners := allPlanners(g, Options{})
	e := NewEngine(8)

	type query struct{ s, d graph.NodeID }
	queries := make([]query, 12)
	for i := range queries {
		queries[i] = query{
			s: graph.NodeID((i * 17) % g.NumNodes()),
			d: graph.NodeID((i*31 + 3) % g.NumNodes()),
		}
	}
	// Serial oracle, computed once up front.
	oracle := make([][][]path.Path, len(queries))
	for qi, q := range queries {
		oracle[qi] = make([][]path.Path, len(planners))
		for pi, pl := range planners {
			routes, err := pl.Alternatives(q.s, q.d)
			if err != nil && err != ErrNoRoute {
				t.Fatalf("oracle %d/%d: %v", qi, pi, err)
			}
			oracle[qi][pi] = routes
		}
	}

	const hammers = 16
	var wg sync.WaitGroup
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				qi := (h + round) % len(queries)
				results := e.Alternatives(planners, queries[qi].s, queries[qi].d)
				for pi, r := range results {
					if r.Err != nil && r.Err != ErrNoRoute {
						t.Errorf("hammer %d: planner %d: %v", h, pi, r.Err)
						return
					}
					want := oracle[qi][pi]
					if len(r.Routes) != len(want) {
						t.Errorf("hammer %d q%d p%d: %d routes, want %d", h, qi, pi, len(r.Routes), len(want))
						return
					}
					for ri := range want {
						if !path.Equal(want[ri], r.Routes[ri]) || want[ri].TimeS != r.Routes[ri].TimeS {
							t.Errorf("hammer %d q%d p%d: route %d differs from serial oracle", h, qi, pi, ri)
							return
						}
					}
				}
			}
		}(h)
	}
	wg.Wait()
}

// TestEngineSingletonInline checks the single-planner fast path.
func TestEngineSingletonInline(t *testing.T) {
	g := testCity(t)
	pl := NewPlateaus(g, Options{})
	e := NewEngine(2)
	res := e.Alternatives([]Planner{pl}, 0, graph.NodeID(g.NumNodes()-1))
	if len(res) != 1 || res[0].Err != nil || len(res[0].Routes) == 0 {
		t.Fatalf("single planner: %+v", res)
	}
	if math.IsInf(res[0].Routes[0].TimeS, 1) {
		t.Fatal("single planner returned infinite travel time")
	}
}

// TestEngineWorkerBound checks worker-count defaulting.
func TestEngineWorkerBound(t *testing.T) {
	if w := NewEngine(3).Workers(); w != 3 {
		t.Errorf("Workers() = %d, want 3", w)
	}
	if w := NewEngine(0).Workers(); w < 1 {
		t.Errorf("default Workers() = %d, want >= 1", w)
	}
}

// trafficClosureSnapshot is the traffic metric of g with a seeded 3 %
// of its edges closed (+Inf): a private metric that differs from the
// public one everywhere and walls off some of its roads.
func trafficClosureSnapshot(g *graph.Graph, seed int64) *weights.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	store := weights.NewStore(traffic.Apply(g, traffic.DefaultModel(uint64(seed))))
	var bans []graph.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < 0.03 {
			bans = append(bans, graph.EdgeID(e))
		}
	}
	store.Ban(bans...)
	return store.Latest()
}

// TestEngineSharedTreePairMatchesPlanners pins the engine's answers, in
// which all four planners share one tree group per query, to each
// planner's standalone Alternatives on the three study cities, on both
// tree backends: under base weights, under traffic plus closures on both
// stores, and under base public weights with a private traffic metric
// carrying its own closures — the case in which the public and traffic
// trees of a ch-auto group come out of one twin pass over different
// metrics. It checks the same errors, edges and TimeS bits, through
// Alternatives one query at a time and through concurrent Alternatives
// calls over every query on one engine.
func TestEngineSharedTreePairMatchesPlanners(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; TestEngineBuildsOneTreePairPerQuery races the sharing")
	}
	pairs := 6
	if testing.Short() {
		pairs = 2
	}
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		qs := separatedPairs(g, pairs, 800, 2022)
		base, closures := weights.Pin(g.BaseWeights()), closureSnapshot(g, 2022)
		snaps := []struct {
			name            string
			public, private *weights.Snapshot
		}{
			{"base", base, base},
			{"closures", closures, closures},
			{"traffic-closures", base, trafficClosureSnapshot(g, 2022)},
		}
		for _, sn := range snaps {
			for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
				planners := NewStudyPlanners(g, Options{Weights: sn.public, TreeBackend: backend}, sn.private)
				e := NewEngine(2)
				concurrent := make([][]Result, len(qs))
				var wg sync.WaitGroup
				for qi, q := range qs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						concurrent[qi] = e.Alternatives(planners[:], q[0], q[1])
					}()
				}
				wg.Wait()
				for qi, q := range qs {
					one := e.Alternatives(planners[:], q[0], q[1])
					for pi, pl := range planners {
						want, wantErr := pl.Alternatives(q[0], q[1])
						label := fmt.Sprintf("%s/%s/%s/%s/q%d", prof.Name, sn.name, backend, pl.Name(), qi)
						sameRoutes(t, label+"/Alternatives", one[pi].Routes, one[pi].Err, want, wantErr)
						c := concurrent[qi][pi]
						sameRoutes(t, label+"/concurrent", c.Routes, c.Err, want, wantErr)
					}
				}
			}
		}
	}
}

// countingTrees wraps a TreeSource, counting its single-tree builds per
// direction and its pair builds; while panicNext is set, the next tree
// build panics instead.
type countingTrees struct {
	src       TreeSource
	trees     [2]atomic.Int64 // forward, backward
	pairs     atomic.Int64
	panicNext atomic.Bool
}

func (c *countingTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (*sp.Tree, *sp.Tree, bool) {
	c.pairs.Add(1)
	return buildPair(c, ws, s, t)
}

func (c *countingTrees) BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	if dir == sp.Forward {
		c.trees[0].Add(1)
	} else {
		c.trees[1].Add(1)
	}
	if c.panicNext.CompareAndSwap(true, false) {
		panic("injected tree build failure")
	}
	return c.src.BuildTree(ws, root, dir)
}

// reset zeroes the counters.
func (c *countingTrees) reset() {
	c.trees[0].Store(0)
	c.trees[1].Store(0)
	c.pairs.Store(0)
}

// counting installs a counting wrapper on the provider's serving view.
func counting(prov *provider) *countingTrees {
	cur := prov.cur.Load()
	counted := *cur
	ct := &countingTrees{src: cur.trees}
	counted.trees = ct
	prov.cur.Store(&counted)
	return ct
}

// spyPlanner wraps a planner, counting the engine's calls of it and
// recording the tree group member each call planned on.
type spyPlanner struct {
	Planner
	mu      sync.Mutex
	calls   int
	members []*groupMember
}

func (p *spyPlanner) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	p.mu.Lock()
	p.calls++
	if m, ok := v.trees.(*groupMember); ok {
		p.members = append(p.members, m)
	}
	p.mu.Unlock()
	return p.Planner.alternativesOn(v, s, t)
}

// TestEngineBuildsOneTreePairPerQuery counts the tree builds of both
// stores through the engine. In a four-planner call Commercial (traffic
// store) joins Plateaus, Dissimilarity and Penalty (public store) in one
// group, and each of the query's four trees — the forward and backward
// tree of each store — is built exactly once, also when several calls
// race on one engine; none is built when every planner hits the result
// cache, and every workspace of the group is released when the call
// returns. A half whose build panics fails only the planner that built
// it; each sibling builds its own pair and answers as it would alone.
func TestEngineBuildsOneTreePairPerQuery(t *testing.T) {
	g := testCity(t)
	planners := NewStudyPlanners(g, Options{}, weights.Pin(traffic.Apply(g, traffic.DefaultModel(99))))
	public := counting(planners[1].source())
	private := counting(planners[0].source())
	stores := []struct {
		name string
		ct   *countingTrees
	}{{"public", public}, {"traffic", private}}
	reset := func() {
		public.reset()
		private.reset()
	}
	// wantTrees checks every store built want trees per direction and no
	// pair of its own.
	wantTrees := func(label string, want int64) {
		t.Helper()
		for _, st := range stores {
			if f, b := st.ct.trees[0].Load(), st.ct.trees[1].Load(); f != want || b != want {
				t.Fatalf("%s: the %s store built %d forward and %d backward trees, want %d each", label, st.name, f, b, want)
			}
			if n := st.ct.pairs.Load(); n != 0 {
				t.Fatalf("%s: the %s store built %d pairs outside the group", label, st.name, n)
			}
		}
	}

	qs := [][2]graph.NodeID{{0, 143}, {5, 130}, {12, 100}, {27, 88}}
	want := make([][4][]path.Path, len(qs))
	for qi, q := range qs {
		for pi, pl := range planners {
			routes, err := pl.Alternatives(q[0], q[1])
			if err != nil {
				t.Fatalf("standalone %s on %v: %v", pl.Name(), q, err)
			}
			want[qi][pi] = routes
		}
	}
	spies := make([]*spyPlanner, len(planners))
	spied := make([]Planner, len(planners))
	for i, pl := range planners {
		spies[i] = &spyPlanner{Planner: pl}
		spied[i] = spies[i]
	}
	e := NewEngine(4)
	// run answers queries qi0.. as concurrent Alternatives calls, checks
	// that every group workspace is released once they return, and reports
	// how often the planners were called and the members they planned on.
	run := func(label string, qi0, n int) ([][]Result, int, []*groupMember) {
		t.Helper()
		res := make([][]Result, n)
		var wg sync.WaitGroup
		for k := range res {
			q := qs[qi0+k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[k] = e.Alternatives(spied, q[0], q[1])
			}()
		}
		wg.Wait()
		calls := 0
		var members []*groupMember
		for _, spy := range spies {
			calls += spy.calls
			members = append(members, spy.members...)
			spy.calls, spy.members = 0, nil
		}
		for _, m := range members {
			for _, gm := range m.g.members {
				if gm.ws != nil {
					t.Fatalf("%s: a workspace of the group was not released", label)
				}
			}
		}
		return res, calls, members
	}
	check := func(label string, res [][]Result, qi0 int) {
		t.Helper()
		for k, rs := range res {
			qi := qi0 + k
			for pi, r := range rs {
				if r.Err != nil {
					t.Fatalf("%s: %s on query %d: %v", label, planners[pi].Name(), qi, r.Err)
				}
				routesEqual(t, want[qi][pi], r.Routes, fmt.Sprintf("%s: %s on query %d", label, planners[pi].Name(), qi))
			}
		}
	}

	reset()
	res, _, members := run("one query", 0, 1)
	check("one query", res, 0)
	wantTrees("one query", 1)
	if len(members) != len(planners) {
		t.Fatalf("%d of %d planners planned on the query's group", len(members), len(planners))
	}
	for _, m := range members {
		if m.g != members[0].g {
			t.Fatal("the planners of one query planned on different groups")
		}
	}
	if n := len(members[0].g.members); n != 2 {
		t.Fatalf("the query's group holds %d views, want 2 (public and traffic)", n)
	}

	reset()
	res, _, _ = run("all queries", 0, len(qs))
	check("all queries", res, 0)
	wantTrees("all queries", int64(len(qs)))

	// A panicking half: exactly one planner fails, the one that built it;
	// the other three each build their own pair.
	reset()
	public.panicNext.Store(true)
	res, _, _ = run("panic", 1, 1)
	failed := 0
	for i, r := range res[0] {
		if r.Err == nil {
			routesEqual(t, want[1][i], r.Routes, "panic: "+planners[i].Name())
			continue
		}
		failed++
		if !strings.Contains(r.Err.Error(), "injected tree build failure") {
			t.Fatalf("panic: %s failed with %v", planners[i].Name(), r.Err)
		}
	}
	if failed != 1 {
		t.Fatalf("panic: %d planners failed, want exactly the one that built", failed)
	}
	if n := public.pairs.Load() + private.pairs.Load(); n != 3 {
		t.Fatalf("panic: siblings built %d pairs of their own, want 3", n)
	}

	// Every planner hits the cache: none is called and no tree is built.
	e.SetCache(64)
	run("warm-up", 2, 1)
	reset()
	res, calls, _ := run("all hits", 2, 1)
	check("all hits", res, 2)
	wantTrees("all hits", 0)
	if calls != 0 {
		t.Fatalf("an all-hit call ran %d planners", calls)
	}
}

// TestEngineWarmHitAllocs pins the allocations of a four-planner call
// answered wholly from the result cache at their measured count: hits are
// answered inline, so a request that plans nothing starts no goroutine
// and pays nothing for the shared tree pair.
func TestEngineWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := testCity(t)
	planners := NewStudyPlanners(g, Options{}, weights.Pin(traffic.Apply(g, traffic.DefaultModel(99))))
	for _, workers := range []int{1, 2} {
		e := NewEngine(workers)
		e.SetCache(64)
		e.Alternatives(planners[:], 0, 143)
		allocs := testing.AllocsPerRun(50, func() { e.Alternatives(planners[:], 0, 143) })
		if allocs > 2 {
			t.Errorf("%d workers: %v allocs per all-hit call, want ≤ 2 (the results and the pins)", workers, allocs)
		}
		t.Logf("%d workers: %v allocs per all-hit call", workers, allocs)
	}
}
