package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/citygen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// commercialReference is the Commercial planner with its greedy selection
// taken straight from path.MaxSimilarityTo: every remaining candidate is
// compared against every selected route in every round, each comparison
// building the two maps of path.Overlap. The planner must return exactly
// its route sets.
func commercialReference(c *Commercial, v *view, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(c.g, s, t); err != nil {
		return nil, err
	}
	private := v.snap.Weights()
	if s == t {
		return trivialQuery(c.g, c.public, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ErrNoRoute
	}
	fastestPrivate := fwd.Dist[t]

	// Candidate pool: plateau routes under the provider's private data.
	sc := getPlateauScratch()
	defer putPlateauScratch(sc)
	plateaus := findPlateausInto(sc, c.g, private, fwd, bwd)
	sortPlateaus(plateaus)

	type scored struct {
		p     path.Path // timed under private weights during selection
		score float64
	}
	var pool []scored
	buf := ws.PathBuf()
	for _, pl := range plateaus {
		if len(pool) >= c.poolSize {
			break
		}
		if pl.RouteCostS > c.opts.UpperBound*fastestPrivate+1e-9 {
			continue
		}
		var cand path.Path
		buf, cand, ok = assemblePlateauRoute(buf, c.g, private, fwd, bwd, pl)
		if !ok {
			continue
		}
		dup := false
		for i := range pool {
			if path.Equal(cand, pool[i].p) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// The pool outlives the assembly buffer; own the edges.
		cand.Edges = append([]graph.EdgeID(nil), cand.Edges...)
		pool = append(pool, scored{p: cand, score: c.score(cand)})
	}
	ws.KeepPathBuf(buf)
	if len(pool) == 0 {
		return nil, ErrNoRoute
	}
	// The provider's best route (its fastest) always comes first; the rest
	// of the pool is re-ranked by the engineered goodness score.
	sort.SliceStable(pool[1:], func(i, j int) bool {
		return pool[1+i].score < pool[1+j].score
	})

	// Greedy diverse selection: the provider's fastest route first, then
	// repeatedly the candidate with the best similarity-inflated score —
	// overlap with already-picked routes makes a candidate less
	// attractive, and near-duplicates (above the pairwise cutoff) are
	// excluded outright.
	selected := []path.Path{pool[0].p}
	remaining := pool[1:]
	for len(selected) < c.opts.K {
		bestIdx := -1
		bestEff := math.Inf(1)
		for i := range remaining {
			if remaining[i].p.Edges == nil {
				continue
			}
			sim := path.MaxSimilarityTo(c.g, remaining[i].p, selected)
			if sim > c.maxPairwise {
				continue
			}
			if eff := remaining[i].score * (1 + c.diversityBias*sim); eff < bestEff {
				bestEff, bestIdx = eff, i
			}
		}
		if bestIdx < 0 {
			break
		}
		selected = append(selected, remaining[bestIdx].p)
		remaining[bestIdx].p.Edges = nil // consumed
	}
	// Report with public (OSM) travel times, as the study's query
	// processor does for every approach.
	out := make([]path.Path, len(selected))
	for i, p := range selected {
		out[i] = path.MustNew(c.g, c.public, s, p.Edges)
	}
	return out, nil
}

// TestCommercialMatchesReference pins the planner's route sets to the
// reference on the three study cities, on both tree backends, under base
// weights and under traffic plus closures, at the default K and at K = 5
// (more greedy rounds, so more running maxima).
func TestCommercialMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine oracle: nothing for the race detector to find, and slow under it")
	}
	pairs := 8
	if testing.Short() {
		pairs = 3
	}
	thirdRoutes := 0
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		qs := separatedPairs(g, pairs, 800, 2022)
		snaps := []struct {
			name string
			snap *weights.Snapshot
		}{{"base", weights.Pin(g.BaseWeights())}, {"closures", closureSnapshot(g, 2022)}}
		for _, sn := range snaps {
			for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
				c := NewCommercial(g, nil, Options{Weights: sn.snap, TreeBackend: backend})
				for _, k := range []int{DefaultK, 5} {
					// The row shares the planner's provider, and with it the
					// backend's trees.
					ck := *c
					ck.opts.K = k
					label := fmt.Sprintf("%s/%s/%s/K%d", prof.Name, sn.name, backend, k)
					for _, q := range qs {
						got, gotErr := ck.Alternatives(q[0], q[1])
						want, wantErr := commercialReference(&ck, ck.prov.view(), q[0], q[1])
						sameRoutes(t, label, got, gotErr, want, wantErr)
						if len(want) > 2 {
							thirdRoutes++
						}
					}
				}
			}
		}
	}
	if thirdRoutes == 0 {
		t.Fatal("no query selected a third route; no running maximum was ever raised")
	}
}

// jaccardNetwork is a five-node street map whose road segment a–b carries
// three edges of different lengths — a→b, a longer parallel twin a→b and a
// shorter one-way b→a — beside the two-way streets s(0)–a(1), b(2)–t(3),
// s–c(4), c–b and a–c. Which of the three a path takes first decides the
// length path.Overlap counts for the segment.
func jaccardNetwork() *graph.Graph {
	b := graph.NewBuilder(5, 0)
	o := geo.Point{Lat: -37.84, Lon: 144.93}
	for _, ne := range [][2]float64{{0, 0}, {0, 500}, {0, 1000}, {0, 1500}, {300, 700}} {
		b.AddNode(geo.Offset(o, ne[0], ne[1]))
	}
	for _, e := range []graph.EdgeSpec{
		{From: 0, To: 1, LengthM: 500, TwoWay: true},
		{From: 1, To: 2, LengthM: 500},
		{From: 1, To: 2, LengthM: 530},
		{From: 2, To: 1, LengthM: 470},
		{From: 2, To: 3, LengthM: 500, TwoWay: true},
		{From: 0, To: 4, LengthM: 760, TwoWay: true},
		{From: 4, To: 2, LengthM: 640, TwoWay: true},
		{From: 1, To: 4, LengthM: 350, TwoWay: true},
	} {
		e.Class, e.SpeedKmh = graph.Residential, 40
		if _, err := b.AddEdge(e); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// simplePaths returns every path of g that has at least one edge and
// visits no node twice.
func simplePaths(g *graph.Graph) []path.Path {
	w := g.BaseWeights()
	var out []path.Path
	var edges []graph.EdgeID
	onPath := make([]bool, g.NumNodes())
	var walk func(s, v graph.NodeID)
	walk = func(s, v graph.NodeID) {
		onPath[v] = true
		heads := g.OutHeads(v)
		for i, e := range g.OutEdges(v) {
			if onPath[heads[i]] {
				continue
			}
			edges = append(edges, e)
			out = append(out, path.MustNew(g, w, s, append([]graph.EdgeID(nil), edges...)))
			walk(s, heads[i])
			edges = edges[:len(edges)-1]
		}
		onPath[v] = false
	}
	for s := range g.NumNodes() {
		walk(graph.NodeID(s), graph.NodeID(s))
	}
	return out
}

// TestSegmentJaccardMatchesOverlap pins the stamped similarity to
// path.Jaccard bit for bit, for every ordered pair of simple paths of a
// network with parallel edges of different lengths and two-way streets.
func TestSegmentJaccardMatchesOverlap(t *testing.T) {
	g := jaccardNetwork()
	paths := simplePaths(g)
	sc := segPool.Get().(*segScratch)
	defer segPool.Put(sc)
	partial := 0
	for _, b := range paths {
		sc.setRoute(g, b)
		for _, a := range paths {
			want := path.Jaccard(g, a, b)
			if got := sc.jaccard(g, a); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Jaccard(%v, %v): stamped %v, path.Jaccard %v", a.Edges, b.Edges, got, want)
			}
			if want > 0 && want < 1 {
				partial++
			}
		}
	}
	if partial == 0 {
		t.Fatalf("no pair of the %d paths overlaps partially", len(paths))
	}
}
