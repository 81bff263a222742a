package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/citygen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// dissimilarityReference is the straightforward SSVP-D+ the planner
// optimizes: two private Dijkstra trees, every candidate scanned and
// sorted, and each evaluated one as a full path.Path against
// path.UnionShare. The planner must return exactly its route sets.
func dissimilarityReference(d *Dissimilarity, base []float64, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(d.g, s, t); err != nil {
		return nil, err
	}
	if s == t {
		return trivialQuery(d.g, base, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd := sp.BuildTreeInto(ws, d.g, base, s, sp.Forward)
	if !fwd.Reached(t) {
		return nil, ErrNoRoute
	}
	bwd := sp.BuildTreeInto(ws, d.g, base, t, sp.Backward)
	fastest := fwd.Dist[t]
	bound := d.opts.UpperBound * fastest

	// Candidate via-nodes: every node whose via-path meets the upper
	// bound, in ascending via-path cost order. The target itself yields
	// the fastest path and sorts first (cost == fastest).
	type viaCand struct {
		node graph.NodeID
		cost float64
	}
	cands := make([]viaCand, 0, 256)
	for v := graph.NodeID(0); int(v) < d.g.NumNodes(); v++ {
		if !fwd.Reached(v) || !bwd.Reached(v) {
			continue
		}
		c := fwd.Dist[v] + bwd.Dist[v]
		if c <= bound+1e-9 {
			cands = append(cands, viaCand{v, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].node < cands[j].node
	})

	// onSelected marks nodes interior to already-selected routes; via-nodes
	// on a selected route regenerate (a superpath of) that route, so they
	// are skipped cheaply — the "+" pruning of SSVP-D+.
	onSelected := make([]bool, d.g.NumNodes())

	var routes []path.Path
	for _, c := range cands {
		if len(routes) >= d.opts.K {
			break
		}
		if onSelected[c.node] {
			continue
		}
		cand, ok := referenceViaPath(d, base, fwd, bwd, s, c.node)
		if !ok {
			continue
		}
		if path.UnionShare(d.g, cand, routes) >= 1-d.opts.Theta {
			continue
		}
		if !admit(d.g, cand, routes, d.opts.SimilarityCutoff) {
			continue
		}
		if !admitLocalOpt(d.g, base, cand, fastest, d.opts) {
			continue
		}
		routes = append(routes, cand)
		for _, v := range cand.Nodes {
			onSelected[v] = true
		}
	}
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// referenceViaPath assembles sp(s,u) + sp(u,t) from the two trees.
// Via-paths that revisit a node (the two halves overlap) are rejected as
// malformed candidates, mirroring SSVP's simple-path requirement.
func referenceViaPath(d *Dissimilarity, base []float64, fwd, bwd *sp.Tree, s, u graph.NodeID) (path.Path, bool) {
	head := fwd.PathTo(d.g, u)
	if head == nil && u != s {
		return path.Path{}, false
	}
	tail := bwd.PathTo(d.g, u)
	if tail == nil && u != bwd.Root {
		return path.Path{}, false
	}
	edges := make([]graph.EdgeID, 0, len(head)+len(tail))
	edges = append(edges, head...)
	edges = append(edges, tail...)
	cand, err := path.New(d.g, base, s, edges)
	if err != nil {
		return path.Path{}, false
	}
	seen := make(map[graph.NodeID]bool, len(cand.Nodes))
	for _, v := range cand.Nodes {
		if seen[v] {
			return path.Path{}, false
		}
		seen[v] = true
	}
	return cand, true
}

// sameRoutes fails t unless the planner's answer equals the reference's:
// the same error, the same edge sequences and the same TimeS bits.
func sameRoutes(t *testing.T, label string, got []path.Path, gotErr error, want []path.Path, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d routes, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !path.Equal(got[i], want[i]) {
			t.Fatalf("%s: route %d differs from the reference", label, i)
		}
		if math.Float64bits(got[i].TimeS) != math.Float64bits(want[i].TimeS) {
			t.Fatalf("%s: route %d TimeS %v, reference %v", label, i, got[i].TimeS, want[i].TimeS)
		}
	}
}

// separatedPairs draws n uniform node pairs at least minM meters apart.
func separatedPairs(g *graph.Graph, n int, minM float64, seed int64) [][2]graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]graph.NodeID
	for len(pairs) < n {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if geo.Haversine(g.Point(s), g.Point(dst)) >= minM {
			pairs = append(pairs, [2]graph.NodeID{s, dst})
		}
	}
	return pairs
}

// TestDissimilarityMatchesReference pins the planner's route sets to the
// reference implementation on the three study cities, on both tree
// backends, under base weights and under traffic plus closures, across
// admission thresholds with the optional refinements switched on.
func TestDissimilarityMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine oracle: nothing for the race detector to find, and slow under it")
	}
	pairs := 8
	if testing.Short() {
		pairs = 3
	}
	rows := []Options{
		{},
		{Theta: 0.3, K: 5, SimilarityCutoff: 0.6, LocalOptimalityWindow: 0.2},
		{Theta: 0.7, K: 5, SimilarityCutoff: 0.6, LocalOptimalityWindow: 0.2},
		{Theta: 1.0, K: 5, SimilarityCutoff: 0.6, LocalOptimalityWindow: 0.2},
	}
	alternatives := 0
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
				pl := NewDissimilarity(g, Options{Weights: sn.snap, TreeBackend: backend})
				base := sn.snap.Weights()
				for ri, row := range rows {
					// The row shares the planner's provider, and with it the
					// backend's trees.
					row.Weights = sn.snap
					d := &Dissimilarity{versioned: pl.versioned, g: g, opts: row.withDefaults()}
					label := fmt.Sprintf("%s/%s/%s/row%d", prof.Name, sn.name, backend, ri)
					for _, q := range qs {
						got, gotErr := d.Alternatives(q[0], q[1])
						want, wantErr := dissimilarityReference(d, base, q[0], q[1])
						sameRoutes(t, label, got, gotErr, want, wantErr)
						if len(want) > 1 {
							alternatives++
						}
					}
				}
			}
		}
	}
	if alternatives == 0 {
		t.Fatal("no query returned an alternative; the comparison covered only fastest paths")
	}
}

// segmentNetwork is a seven-node street map, all streets two-way but one:
// the main road s(0)–a(1)–b(2)–t(3), whose a→b leg also has a one-way
// parallel twin of equal speed; a detour s–c(4)–b; an alternative
// a–d(6)–t; and a 20 m dead-end spur a–u(5).
func segmentNetwork() (g *graph.Graph, e map[string]graph.EdgeID) {
	b := graph.NewBuilder(7, 0)
	o := geo.Point{Lat: -37.84, Lon: 144.93}
	for _, ne := range [][2]float64{{0, 0}, {0, 500}, {0, 1000}, {0, 1500}, {300, 700}, {-20, 500}, {-300, 1000}} {
		b.AddNode(geo.Offset(o, ne[0], ne[1]))
	}
	e = map[string]graph.EdgeID{}
	add := func(name string, from, to graph.NodeID, twoWay bool) {
		id, err := b.AddEdge(graph.EdgeSpec{From: from, To: to, Class: graph.Residential, SpeedKmh: 40, TwoWay: twoWay})
		if err != nil {
			panic(err)
		}
		e[name] = id
		if twoWay {
			e[name[1:]+name[:1]] = id + 1
		}
	}
	add("sa", 0, 1, true)
	add("ab", 1, 2, true)
	add("aB", 1, 2, false) // the parallel twin of a→b
	add("bt", 2, 3, true)
	add("sc", 0, 4, true)
	add("cb", 4, 2, true)
	add("au", 1, 5, true)
	add("ad", 1, 6, true)
	add("dt", 6, 3, true)
	return b.Build(), e
}

// TestDissimilaritySegmentSemantics pins the stamped checks to
// path.UnionShare's road-segment semantics and to the reference's
// simple-path rule: a candidate running along the parallel twin or the
// reverse edge of a selected route counts as shared, every via-path's
// share equals UnionShare to the bit, and a via-node whose two tree halves
// overlap is rejected.
func TestDissimilaritySegmentSemantics(t *testing.T) {
	g, e := segmentNetwork()
	w := g.BaseWeights()
	const s, a, tgt, spur = 0, 1, 3, 5
	fwd := sp.BuildTree(g, w, s, sp.Forward)
	bwd := sp.BuildTree(g, w, tgt, sp.Backward)

	sc := dissimPool.Get().(*dissimScratch)
	defer dissimPool.Put(sc)
	sc.collect(g, fwd, bwd, -1) // opens the epochs; no node is within a negative bound
	selected := path.MustNew(g, w, s, []graph.EdgeID{e["sa"], e["ab"], e["bt"]})
	sc.markSelected(g, selected)
	set := []path.Path{selected}

	for name, edges := range map[string][]graph.EdgeID{
		"twin":    {e["sa"], e["aB"], e["bt"]},
		"reverse": {e["sc"], e["cb"], e["ba"], e["ad"], e["dt"]},
	} {
		want := path.UnionShare(g, path.MustNew(g, w, s, edges), set)
		if want <= 0 {
			t.Fatalf("%s: reference share %v, want the selected road counted", name, want)
		}
		var total, shared float64
		for _, e := range edges {
			total, shared = sc.fold(g, e, total, shared)
		}
		if got := shared / total; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: stamped share %v, UnionShare %v", name, got, want)
		}
	}

	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		cand := path.MustNew(g, w, s, append(fwd.PathTo(g, u), bwd.PathTo(g, u)...))
		want := path.UnionShare(g, cand, set)
		got, ok := sc.viaShare(g, fwd, bwd, u, true)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("via %d: stamped share %v (ok %v), UnionShare %v", u, got, ok, want)
		}
	}

	// The spur's via-path runs s→a→u and back u→a→…→t.
	buf, okF := fwd.PathInto(nil, g, spur)
	buf, okB := bwd.PathInto(buf, g, spur)
	if !okF || !okB || g.Edge(buf[len(buf)-1]).To != tgt {
		t.Fatalf("spur via-path not assembled: %v", buf)
	}
	if g.Edge(buf[2]).To != a {
		t.Fatalf("spur via-path %v does not return through a", buf)
	}
	if sc.simple(g, buf, s) {
		t.Error("overlapping via-path passed the simplicity check")
	}
	d := NewDissimilarity(g, Options{})
	if _, ok := referenceViaPath(d, w, fwd, bwd, s, spur); ok {
		t.Error("reference accepted the overlapping via-path")
	}

	// Every pair, both backends, several thresholds: the planner equals
	// the reference.
	for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
		for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			d := NewDissimilarity(g, Options{TreeBackend: backend, Theta: theta, K: 5})
			for src := graph.NodeID(0); int(src) < g.NumNodes(); src++ {
				for dst := graph.NodeID(0); int(dst) < g.NumNodes(); dst++ {
					got, gotErr := d.Alternatives(src, dst)
					want, wantErr := dissimilarityReference(d, w, src, dst)
					sameRoutes(t, backend.String(), got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestDissimilarityWarmAllocs pins the warm query to the allocations of
// the routes it returns: the route slice plus one edge and one node slice
// per route.
func TestDissimilarityWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
		d := NewDissimilarity(g, Options{TreeBackend: backend})
		q := separatedPairs(g, 1, 800, 7)[0]
		routes, err := d.Alternatives(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.Alternatives(q[0], q[1]); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(2*d.opts.K + 2); allocs > limit {
			t.Errorf("%s: %v allocs per warm query (%d routes), want ≤ %v", backend, allocs, len(routes), limit)
		}
		t.Logf("%s: %v allocs per warm query, %d routes", backend, allocs, len(routes))
	}
}
