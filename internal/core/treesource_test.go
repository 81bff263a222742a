package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// The tree-backend claim under test: the choice-routing planners return
// the same routes whether their trees come from full Dijkstra searches or
// sweeps over a customizable contraction hierarchy (elliptic pruning is
// pinned in elliptic_test.go).
//
// Exact route-set equality requires tie-free shortest paths (with ties,
// equally correct trees may pick different parents and therefore different
// plateaus), so these tests run on randomRoadNetwork graphs whose
// continuous random speeds make ties measure-zero. On the tied grid city
// the planners are exercised by the contract tests instead.

func comparePlannersExact(t *testing.T, a, b Planner, g *graph.Graph, queries int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for q := 0; checked < queries && q < queries*4; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		ra, err1 := a.Alternatives(s, dst)
		rb, err2 := b.Alternatives(s, dst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d->%d: error mismatch %v vs %v", s, dst, err1, err2)
		}
		if err1 != nil {
			continue
		}
		checked++
		if len(ra) != len(rb) {
			t.Fatalf("query %d->%d: %d vs %d routes", s, dst, len(ra), len(rb))
		}
		for i := range ra {
			if !path.Equal(ra[i], rb[i]) {
				t.Fatalf("query %d->%d route %d differs between backends", s, dst, i)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connected queries sampled")
	}
}

func TestPlateausCHMatchesDijkstraBackend(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomRoadNetwork(seed+100, 150)
		dij := NewPlateaus(g, Options{})
		chp := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})
		comparePlannersExact(t, dij, chp, g, 12, seed)
	}
}

func TestCommercialCHMatchesFullTrees(t *testing.T) {
	g := randomRoadNetwork(300, 150)
	private := traffic.Apply(g, traffic.DefaultModel(33))
	full := NewCommercial(g, private, Options{})
	chc := NewCommercial(g, private, Options{TreeBackend: TreeCHAuto})
	comparePlannersExact(t, full, chc, g, 12, 5)
}

// TestEngineDrivesCHAndPrunedPlanners hammers a CH-backed Plateaus, a
// Dijkstra Commercial and Plateaus on elliptic trees through the
// concurrent engine; with -race it verifies the shared TreeBuilder, the
// Dijkstra views and the pooled workspaces the pruned searches share are
// data-race free.
func TestEngineDrivesCHAndPrunedPlanners(t *testing.T) {
	g := testCity(t)
	e := NewEngine(4)
	planners := []Planner{
		NewPlateaus(g, Options{TreeBackend: TreeCHAuto}),
		NewCommercial(g, traffic.Apply(g, traffic.DefaultModel(4)), Options{}),
		prunedPlateaus(g, Options{}),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 15; q++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				if s == dst {
					continue
				}
				for _, r := range e.Alternatives(planners, s, dst) {
					if r.Err != nil && r.Err != ErrNoRoute {
						t.Errorf("engine CH query %d->%d: %v", s, dst, r.Err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestDijkstraBackendBuildsFullTrees pins that the Dijkstra backend is
// the plain oracle: every tree planner on TreeDijkstra, standalone or in
// the study set, serves two full Dijkstra trees, before and after a
// closure is published.
func TestDijkstraBackendBuildsFullTrees(t *testing.T) {
	g := randomRoadNetwork(41, 120)
	pub := weights.NewStore(g.BaseWeights())
	priv := weights.NewStore(g.BaseWeights())
	study := NewStudyPlanners(g, Options{Weights: pub}, priv)
	planners := []Planner{
		NewPlateaus(g, Options{Weights: pub}),
		NewCommercial(g, nil, Options{Weights: priv}),
		NewDissimilarity(g, Options{Weights: pub}),
		study[0],
		study[1],
		study[2],
	}
	check := func(when string) {
		t.Helper()
		for _, pl := range planners {
			v := pl.source().view()
			if want := pl.source().src.Snapshot().Version(); v.snap.Version() != want {
				t.Errorf("%s %s: serves v%d, want v%d", when, pl.Name(), v.snap.Version(), want)
			}
			if _, ok := v.trees.(dijkstraTrees); !ok {
				t.Errorf("%s %s: view at v%d holds %T, want dijkstraTrees", when, pl.Name(), v.snap.Version(), v.trees)
			}
		}
	}
	check("before the ban:")
	pub.Ban(3)
	priv.Ban(3)
	check("after the ban:")
}

// TestRestrictedTreesCollectableAfterOneGC pins that a superseded
// version's CCH source — its builder and cached matrix selections — is
// freed by the first garbage collection after its last use.
func TestRestrictedTreesCollectableAfterOneGC(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomPlanarNetwork(3, 12, 12)
	pl := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})
	v := pl.prov.view()
	r := newCCHTrees(g, v.hier, g.NumNodes(), &selectionStats{})
	targets := []graph.NodeID{graph.NodeID(g.NumNodes() - 1), graph.NodeID(g.NumNodes() / 2)}
	e, hit := r.selectTargets(targets)
	if hit || e.sel == nil || r.stats.selMisses.Load() != 1 {
		t.Fatalf("selection ran no restricted select (hit %v, misses %d)", hit, r.stats.selMisses.Load())
	}
	ws := sp.GetWorkspace()
	if tree := r.tb.BuildTreeRestrictedInto(ws, 0, sp.Forward, e.sel); !tree.Reached(targets[0]) {
		t.Fatal("corner-to-corner restricted sweep unreachable")
	}
	ws.Release()
	ref := weak.Make(r)
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a CCH source survived a collection after its last use")
	}
}

// TestRoutesNeverSelect pins that route requests build full tree pairs:
// with the matrix cutover at 1 (which restricts every selection),
// Plateaus, Dissimilarity and Commercial on ch-auto answer every query
// through the engine without a single selection-cache lookup, and one
// matrix table on the shared provider afterwards counts exactly one.
func TestRoutesNeverSelect(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(71, 150)
	pub := weights.NewStore(g.BaseWeights())
	priv := weights.NewStore(g.BaseWeights())
	study := NewStudyPlanners(g, Options{TreeBackend: TreeCHAuto, Weights: pub}, priv)
	commercial, plateaus, dissimilarity := study[0].(*Commercial), study[1].(*Plateaus), study[2]
	e := NewEngine(2)

	rng := rand.New(rand.NewSource(5))
	answered := 0
	for q := 0; q < 20; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		for _, r := range e.Alternatives([]Planner{plateaus, dissimilarity, commercial}, s, dst) {
			if r.Err == nil {
				answered++
			} else if r.Err != ErrNoRoute {
				t.Fatalf("query %d->%d: %v", s, dst, r.Err)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no query answered")
	}
	for _, hr := range []hierarchyReporter{plateaus, commercial} {
		if st := hr.HierarchyStatus(); st.SelectionHits+st.SelectionMisses != 0 {
			t.Fatalf("%d route answers resolved %d selections, want 0", answered, st.SelectionHits+st.SelectionMisses)
		}
	}

	m := NewMatrixEngineFor(plateaus, nil)
	var tab Table
	if err := m.MatrixInto(&tab, sampleNodes(g, 3, 1), sampleNodes(g, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if st := plateaus.HierarchyStatus(); st.SelectionHits+st.SelectionMisses != 1 {
		t.Fatalf("one matrix table resolved %d selections, want 1", st.SelectionHits+st.SelectionMisses)
	}
}
