// Benchmark harness: one benchmark per table/figure of the paper, named
// after it (BenchmarkTableI..., BenchmarkFig1...; README.md describes the
// study and its tables). The artifacts themselves — the formatted Table
// I, ANOVA lines and Table II — are printed by `go run ./cmd/userstudy`;
// the benchmarks here measure the cost of regenerating each of them and
// of the individual techniques.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/simstudy"
	"repro/internal/sp"
	"repro/internal/spatial"
)

var (
	benchOnce  sync.Once
	benchStudy *eval.Study
	benchErr   error
)

// benchSetup builds the three city networks once for all benchmarks.
func benchSetup(b *testing.B) *eval.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = eval.NewStudy(2022)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// benchQueries pre-samples queries of one band so the planner benchmarks
// measure planning, not workload sampling.
func benchQueries(b *testing.B, city *eval.City, band simstudy.Band, n int) []eval.Query {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	out := make([]eval.Query, 0, n)
	for len(out) < n {
		q, ok := city.SampleQuery(rng, band)
		if !ok {
			b.Fatalf("cannot sample %v-band query", band)
		}
		out = append(out, q)
	}
	return out
}

// --- Table I ----------------------------------------------------------------

// BenchmarkTableIResponse measures one full study response: sampling a
// query, running all four approaches, extracting features and producing
// the four ratings — the unit of work behind every row of Table I.
func BenchmarkTableIResponse(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	cell := simstudy.Cell{City: "Melbourne", Resident: true, Band: simstudy.Medium}
	params := simstudy.DefaultRaterParams()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := city.RunCell(cell, 1, params, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIStatistics measures the statistical pipeline of Table I
// and §IV-A on a full-size 520×4 rating matrix: grouping, means, standard
// deviations and the one-way ANOVA.
func BenchmarkTableIStatistics(b *testing.B) {
	// A deterministic synthetic record set the size of the real study.
	sched := simstudy.PaperSchedule()
	rng := rand.New(rand.NewSource(5))
	var recs []eval.Record
	for _, cc := range sched {
		for i := 0; i < cc.N; i++ {
			var rec eval.Record
			rec.Cell = cc.Cell
			for a := 0; a < eval.NumApproaches; a++ {
				rec.Ratings[a] = 1 + rng.Intn(5)
				rec.Sim[a] = rng.Float64()
				rec.NumRoutes[a] = 3
			}
			recs = append(recs, rec)
		}
	}
	cities := []string{"Melbourne", "Dhaka", "Copenhagen"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.FormatTableI(recs, cities)
		_ = eval.ANOVAReport(recs, cities)
	}
}

// --- Table II ---------------------------------------------------------------

// BenchmarkTableIISimT measures Eq. (1) Sim(T) over a 3-route set, the
// per-query measurement behind every cell of Table II.
func BenchmarkTableIISimT(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	q := benchQueries(b, city, simstudy.Medium, 1)[0]
	rs, err := city.RunPlanners(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < eval.NumApproaches; a++ {
			_ = path.SimT(city.Graph, rs.Sets[a])
		}
	}
}

// BenchmarkTableIIFormatting measures assembling the full Table II text
// from a study-size record set.
func BenchmarkTableIIFormatting(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var recs []eval.Record
	for _, cc := range simstudy.PaperSchedule() {
		for i := 0; i < cc.N; i++ {
			var rec eval.Record
			rec.Cell = cc.Cell
			for a := 0; a < eval.NumApproaches; a++ {
				rec.Sim[a] = rng.Float64()
				rec.NumRoutes[a] = 3
			}
			recs = append(recs, rec)
		}
	}
	cities := []string{"Melbourne", "Dhaka", "Copenhagen"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.FormatTableII(recs, cities)
	}
}

// --- Fig. 1: the plateau pipeline --------------------------------------------

// BenchmarkFig1PlateauPipeline measures the full Choice Routing pipeline
// of Fig. 1: two shortest-path trees, the tree join that enumerates
// plateaus, and route assembly from the top plateaus.
func BenchmarkFig1PlateauPipeline(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Copenhagen"]
	q := benchQueries(b, city, simstudy.Medium, 1)[0]
	planner := core.NewPlateaus(city.Graph, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Alternatives(q.S, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1TreeJoin isolates the join step (§II-B notes it is linear
// in the tree size and dominated by the two Dijkstra searches).
func BenchmarkFig1TreeJoin(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Copenhagen"]
	q := benchQueries(b, city, simstudy.Medium, 1)[0]
	planner := core.NewPlateaus(city.Graph, core.Options{})
	w := city.Graph.CopyWeights()
	fwd := sp.BuildTree(city.Graph, w, q.S, sp.Forward)
	bwd := sp.BuildTree(city.Graph, w, q.T, sp.Backward)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = planner.FindPlateaus(fwd, bwd)
	}
}

// --- Figs. 2-3: the demo query processor -------------------------------------

// BenchmarkFig2QueryProcessor measures one demo-system query: nearest-
// vertex matching for both endpoints plus all four approaches, the work
// behind each "Submit" press in Fig. 2.
func BenchmarkFig2QueryProcessor(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	bb := city.Graph.BBox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, _ := city.Index.Nearest(bb.Center())
		tv, _ := city.Index.Nearest(bb.Center())
		_ = sv
		_ = tv
		q := eval.Query{S: graph.NodeID(i % city.Graph.NumNodes()), T: graph.NodeID((i*7 + 13) % city.Graph.NumNodes())}
		if q.S == q.T {
			continue
		}
		if _, err := city.RunPlanners(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4: rank flips between datasets -------------------------------------

// BenchmarkFig4RankFlip measures the Fig. 4 analysis for one query:
// compute both providers' routes and re-time every route under both
// weight vectors to detect ranking flips.
func BenchmarkFig4RankFlip(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	q := benchQueries(b, city, simstudy.Medium, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr, err1 := city.Planners[0].Alternatives(q.S, q.T)
		pr, err2 := city.Planners[1].Alternatives(q.S, q.T)
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		for _, a := range gr {
			for _, p := range pr {
				_ = a.TimeS > p.TimeS
				_ = a.TimeUnder(city.Traffic) < p.TimeUnder(city.Traffic)
			}
		}
	}
}

// --- Per-technique computation cost (§II) -------------------------------------

func benchPlanner(b *testing.B, mk func(city *eval.City) core.Planner) {
	study := benchSetup(b)
	for _, name := range study.CityNames() {
		city := study.Cities[name]
		queries := benchQueries(b, city, simstudy.Medium, 8)
		pl := mk(city)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := pl.Alternatives(q.S, q.T); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlannerPenalty(b *testing.B) {
	benchPlanner(b, func(c *eval.City) core.Planner { return core.NewPenalty(c.Graph, core.Options{}) })
}

func BenchmarkPlannerPlateaus(b *testing.B) {
	benchPlanner(b, func(c *eval.City) core.Planner { return core.NewPlateaus(c.Graph, core.Options{}) })
}

func BenchmarkPlannerDissimilarity(b *testing.B) {
	benchPlanner(b, func(c *eval.City) core.Planner { return core.NewDissimilarity(c.Graph, core.Options{}) })
}

func BenchmarkPlannerCommercial(b *testing.B) {
	benchPlanner(b, func(c *eval.City) core.Planner { return core.NewCommercial(c.Graph, c.Traffic, core.Options{}) })
}

// --- Hot-path microbenchmarks (workspace machinery) ---------------------------
//
// These measure the engine-level primitives on a study city with
// -benchmem: the convenience wrappers against the allocation-free ...Into
// workspace variants, plus the CH point-to-point query.

func benchCityGraph(b *testing.B) (*graph.Graph, []float64) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	return city.Graph, city.Public
}

func BenchmarkMicroShortestPath(b *testing.B) {
	g, w := benchCityGraph(b)
	dst := graph.NodeID(g.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ShortestPath(g, w, 0, dst)
	}
}

func BenchmarkMicroShortestPathInto(b *testing.B) {
	g, w := benchCityGraph(b)
	dst := graph.NodeID(g.NumNodes() - 1)
	ws := sp.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ShortestPathInto(ws, g, w, 0, dst)
	}
}

func BenchmarkMicroBuildTree(b *testing.B) {
	g, w := benchCityGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.BuildTree(g, w, 0, sp.Forward)
	}
}

func BenchmarkMicroBuildTreeInto(b *testing.B) {
	g, w := benchCityGraph(b)
	ws := sp.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.BuildTreeInto(ws, g, w, 0, sp.Forward)
	}
}

// --- Tree backends of the choice-routing planners ------------------------------
//
// The §II-B tentpole: the Plateaus planner answering the same queries on
// full Dijkstra trees vs ch-auto trees swept out of the customizable
// hierarchy. Run on a uniform grid (the structure where full-tree Dijkstra
// is most heap-bound) with -benchmem to see the allocation profile.

// benchGrid builds a rows×cols grid town with a few arterials, the same
// shape the ch package benchmarks use.
func benchGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, rows*cols*4)
	o := geo.Point{Lat: -37.81, Lon: 144.96}
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, float64(r)*150, float64(c)*150))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			class := graph.Residential
			if r%5 == 0 {
				class = graph.Primary
			}
			if c+1 < cols {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r, c+1), Class: class, TwoWay: true})
			}
			if r+1 < rows {
				b.AddEdge(graph.EdgeSpec{From: id(r, c), To: id(r+1, c), Class: graph.Residential, TwoWay: true})
			}
		}
	}
	return b.Build()
}

func benchPlateausBackend(b *testing.B, backend core.TreeBackend) {
	g := benchGrid(50, 50)
	planner := core.NewPlateaus(g, core.Options{TreeBackend: backend})
	rng := rand.New(rand.NewSource(4))
	type q struct{ s, t graph.NodeID }
	queries := make([]q, 16)
	for i := range queries {
		queries[i] = q{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
		if queries[i].s == queries[i].t {
			queries[i].t = (queries[i].t + 1) % graph.NodeID(g.NumNodes())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qq := queries[i%len(queries)]
		if _, err := planner.Alternatives(qq.s, qq.t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlateausDijkstra(b *testing.B) { benchPlateausBackend(b, core.TreeDijkstra) }

// TestPlateausTreeSweepZeroAlloc pins the PHAST promise at the planner
// substrate: building both complete trees (upward search + downward
// sweep) on a warm workspace allocates nothing.
func TestPlateausTreeSweepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := benchGrid(40, 40)
	tb := cch.PreprocessShared(g).Customize(g.CopyWeights()).NewTreeBuilder()
	ws := sp.NewWorkspace()
	s, dst := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	build := func() {
		tb.BuildTreeInto(ws, s, sp.Forward)
		tb.BuildTreeInto(ws, dst, sp.Backward)
	}
	build()
	if allocs := testing.AllocsPerRun(10, build); allocs > 0 {
		t.Errorf("PHAST tree pair: %v allocs/op after warm-up, want 0", allocs)
	}
}

// --- Restricted sweeps (RPHAST) -----------------------------------------------
//
// The PR 5 tentpole: full PHAST sweeps pay for every rank even when the
// query's ellipse covers a corner of the city. These benchmarks compare a
// full tree pair against the RPHAST restricted pair on *short* queries
// (elliptic target set ≤ 25% of the nodes), with the selection built once
// and reused — the RPHAST amortization. Run with -benchmem: restricted
// builds allocate nothing warm.

// rphastTargets replicates the serving layer's elliptic selection: every
// node whose geometric lower-bound detour fits within UpperBound × the
// fastest time.
func rphastTargets(b *testing.B, g *graph.Graph, w []float64, h ch.Hierarchy, s, t graph.NodeID) []graph.NodeID {
	b.Helper()
	fastest := h.Dist(s, t)
	scale := sp.MinSecondsPerMeter(g, w)
	if scale <= 0 {
		b.Fatal("degenerate metric: no admissible geometric bound")
	}
	budget := core.DefaultUpperBound * fastest / scale
	lb := geo.NewLowerBounder(g.BBox())
	sPt, tPt := g.Point(s), g.Point(t)
	targets := []graph.NodeID{s, t}
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Point(graph.NodeID(v))
		if lb.MetersLB(sPt, p)+lb.MetersLB(p, tPt) <= budget {
			targets = append(targets, graph.NodeID(v))
		}
	}
	frac := float64(len(targets)) / float64(g.NumNodes())
	b.ReportMetric(frac, "ellipse-frac")
	if frac > 0.25 {
		b.Logf("warning: ellipse covers %.0f%% of the graph; not a short query", frac*100)
	}
	return targets
}

// benchShortGridPair returns a short query on the 50×50 grid: ~10 cells
// apart near the center, an ellipse well under a quarter of the town.
func benchShortGridPair(cols int) (s, t graph.NodeID) {
	r, c := 20, 20
	return graph.NodeID(r*cols + c), graph.NodeID((r+6)*cols + c + 8)
}

func BenchmarkPHASTFullGrid50(b *testing.B) {
	g := benchGrid(50, 50)
	w := g.CopyWeights()
	tb := cch.PreprocessShared(g).Customize(w).NewTreeBuilder()
	ws := sp.NewWorkspace()
	s, t := benchShortGridPair(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BuildTreeInto(ws, s, sp.Forward)
		tb.BuildTreeInto(ws, t, sp.Backward)
	}
}

func BenchmarkRPHASTGrid50(b *testing.B) {
	g := benchGrid(50, 50)
	w := g.CopyWeights()
	h := cch.PreprocessShared(g).Customize(w)
	tb := h.NewTreeBuilder()
	ws := sp.NewWorkspace()
	s, t := benchShortGridPair(50)
	sel := tb.Select(rphastTargets(b, g, w, h, s, t), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BuildTreeRestrictedInto(ws, s, sp.Forward, sel)
		tb.BuildTreeRestrictedInto(ws, t, sp.Backward, sel)
	}
}

// BenchmarkRPHASTSelectGrid50 is the amortized half: re-selecting the
// target subgraph onto warm Selection storage — the per-ellipse price a
// serving process pays once per (s,t) pair per weight version.
func BenchmarkRPHASTSelectGrid50(b *testing.B) {
	g := benchGrid(50, 50)
	w := g.CopyWeights()
	h := cch.PreprocessShared(g).Customize(w)
	tb := h.NewTreeBuilder()
	s, t := benchShortGridPair(50)
	targets := rphastTargets(b, g, w, h, s, t)
	sel := tb.Select(targets, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = tb.Select(targets, sel)
	}
}

// benchMelbourneShortPair picks two intersections ~1.2km apart in
// Melbourne — the short-band urban query the restricted sweep targets.
func benchMelbourneShortPair(b *testing.B, city *eval.City) (s, t graph.NodeID) {
	b.Helper()
	c := city.Graph.BBox().Center()
	s, _ = city.Index.Nearest(c)
	t, _ = city.Index.Nearest(geo.Offset(c, 900, 800))
	if s == t {
		b.Fatal("short pair collapsed to one intersection")
	}
	return s, t
}

func BenchmarkPHASTFullMelbourne(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	tb := cch.PreprocessShared(city.Graph).Customize(city.Public).NewTreeBuilder()
	ws := sp.NewWorkspace()
	s, t := benchMelbourneShortPair(b, city)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BuildTreeInto(ws, s, sp.Forward)
		tb.BuildTreeInto(ws, t, sp.Backward)
	}
}

func BenchmarkRPHASTMelbourne(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	h := cch.PreprocessShared(city.Graph).Customize(city.Public)
	tb := h.NewTreeBuilder()
	ws := sp.NewWorkspace()
	s, t := benchMelbourneShortPair(b, city)
	sel := tb.Select(rphastTargets(b, city.Graph, city.Public, h, s, t), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BuildTreeRestrictedInto(ws, s, sp.Forward, sel)
		tb.BuildTreeRestrictedInto(ws, t, sp.Backward, sel)
	}
}

func BenchmarkMicroCHDist(b *testing.B) {
	g, w := benchCityGraph(b)
	h := cch.PreprocessShared(g).Customize(w)
	dst := graph.NodeID(g.NumNodes() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Dist(0, dst)
	}
}

// --- Point-to-point query (elimination-tree chain walks) --------------------
//
// The CCH answers Dist by two heap-free elimination-tree chain walks. This
// benchmark measures it on Melbourne short- and long-range pairs under
// both contraction orders. Run with -benchmem: it must stay at 0
// allocs/op warm.

// benchMelbourneLongPair picks two intersections on opposite sides of the
// network — the long-range query whose walks cover near-full root paths.
func benchMelbourneLongPair(b *testing.B, city *eval.City) (s, t graph.NodeID) {
	b.Helper()
	c := city.Graph.BBox().Center()
	s, _ = city.Index.Nearest(geo.Offset(c, -3500, -3500))
	t, _ = city.Index.Nearest(geo.Offset(c, 3500, 3500))
	if s == t {
		b.Fatal("long pair collapsed to one intersection")
	}
	return s, t
}

type benchPair struct{ s, t graph.NodeID }

// benchMelbourneShortPairs samples short-range (~1.2km) pairs around
// eight neighborhoods of the city, so the short-query numbers average
// over separator geometry instead of hinging on one lucky pair.
func benchMelbourneShortPairs(b *testing.B, city *eval.City) []benchPair {
	b.Helper()
	c := city.Graph.BBox().Center()
	var pairs []benchPair
	for _, off := range [][2]float64{
		{0, 0}, {2000, 0}, {-2000, 0}, {0, 2000},
		{0, -2000}, {1500, 1500}, {-1500, 1500}, {1500, -1500},
	} {
		cc := geo.Offset(c, off[0], off[1])
		s, _ := city.Index.Nearest(cc)
		t, _ := city.Index.Nearest(geo.Offset(cc, 900, 800))
		if s != t {
			pairs = append(pairs, benchPair{s, t})
		}
	}
	if len(pairs) == 0 {
		b.Fatal("all short pairs collapsed")
	}
	return pairs
}

// BenchmarkElimTreeDist runs Dist over both contraction orders and three
// query ranges: short is the city-center ~1.2km pair every per-query
// benchmark in this file uses (benchMelbourneShortPair), shortmix rotates
// through the eight-neighborhood sample so separator geometry is averaged
// rather than hinging on one lucky cell, and long is a cross-city pair.
func BenchmarkElimTreeDist(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	for _, ord := range []struct {
		name string
		kind cch.OrderKind
	}{{"geometric", cch.OrderGeometric}, {"flow", cch.OrderFlow}} {
		h := cch.PreprocessWith(city.Graph, cch.OrderConfig{Kind: ord.kind}).Customize(city.Public)
		ss, st := benchMelbourneShortPair(b, city)
		mix := benchMelbourneShortPairs(b, city)
		ls, lt := benchMelbourneLongPair(b, city)
		for _, q := range []struct {
			name  string
			pairs []benchPair
		}{{"short", []benchPair{{ss, st}}}, {"shortmix", mix}, {"long", []benchPair{{ls, lt}}}} {
			b.Run(ord.name+"/"+q.name, func(b *testing.B) {
				h.Dist(q.pairs[0].s, q.pairs[0].t) // warm the workspace pool
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := q.pairs[i%len(q.pairs)]
					h.Dist(p.s, p.t)
				}
			})
		}
	}
}

// --- Live traffic: CCH preprocessing vs per-publish customization -----------

// BenchmarkCCHPreprocess is the one-off metric-independent half of the
// customizable hierarchy: nested-dissection order, chordal fill-in and
// triangle lists. Paid once per road network, never per snapshot.
func BenchmarkCCHPreprocess(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cch.Preprocess(city.Graph).NumPairs() == 0 {
			b.Fatal("empty topology")
		}
	}
}

// BenchmarkCCHCustomize is the per-publish path: one triangle-relaxation
// sweep plus the tree-builder repack — exact for the snapshot whatever it
// contains, with no re-contraction. Against BenchmarkCCHPreprocess it is
// the measured price of making an arbitrary snapshot exactly servable.
func BenchmarkCCHCustomize(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	pre := cch.Preprocess(city.Graph)
	snap := city.Seq.WeightsAt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := pre.Customize(snap)
		if h.NewTreeBuilder() == nil {
			b.Fatal("no tree builder")
		}
	}
}

// BenchmarkCCHCustomizePerfect adds the perfect post-pass: the extra
// per-publish cost of proving dominated arcs inert (read against the
// sweep savings every subsequent tree build pockets).
func BenchmarkCCHCustomizePerfect(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	pre := cch.Preprocess(city.Graph)
	snap := city.Seq.WeightsAt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := pre.CustomizeWith(snap, cch.Config{Perfect: true})
		if h.NewTreeBuilder() == nil {
			b.Fatal("no tree builder")
		}
	}
}

// BenchmarkOrderGeometric is the one-off cost of the coordinate-
// bisection nested-dissection order on Melbourne — the preprocessing
// floor every CCH build pays.
func BenchmarkOrderGeometric(b *testing.B) {
	study := benchSetup(b)
	g := study.Cities["Melbourne"].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cch.OrderWith(g, cch.OrderConfig{Kind: cch.OrderGeometric})[0] < 0 {
			b.Fatal("bad rank")
		}
	}
}

// BenchmarkOrderFlow is the flow-refined order's build cost: every split
// additionally runs an inertial-flow min vertex cut. Read against
// BenchmarkOrderGeometric for the one-off premium and against
// BenchmarkCCHCustomizeFlowOrder for what that premium buys on every
// subsequent publish.
func BenchmarkOrderFlow(b *testing.B) {
	study := benchSetup(b)
	g := study.Cities["Melbourne"].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cch.OrderWith(g, cch.OrderConfig{Kind: cch.OrderFlow})[0] < 0 {
			b.Fatal("bad rank")
		}
	}
}

// BenchmarkCCHCustomizeFlowOrder is BenchmarkCCHCustomize on the
// flow-refined order: fewer separator nodes mean fewer
// pairs and triangles, so the same publish costs measurably less — the
// per-snapshot payoff of the more expensive preprocessing.
func BenchmarkCCHCustomizeFlowOrder(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	pre := cch.PreprocessWith(city.Graph, cch.OrderConfig{Kind: cch.OrderFlow})
	snap := city.Seq.WeightsAt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := pre.Customize(snap)
		if h.NewTreeBuilder() == nil {
			b.Fatal("no tree builder")
		}
	}
}

// BenchmarkPlateausCCH is the grid planner benchmark on the ch-auto
// backend over the customizable hierarchy, to read against
// BenchmarkPlateausDijkstra.
func BenchmarkPlateausCCH(b *testing.B) { benchPlateausBackend(b, core.TreeCHAuto) }

// BenchmarkServingCachedQuery measures the engine's versioned result
// cache at full heat: the same query replayed between publishes is
// answered without touching a planner.
func BenchmarkServingCachedQuery(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	queries := benchQueries(b, city, simstudy.Medium, 1)
	q := queries[0]
	if _, err := city.RunPlanners(q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := city.RunPlanners(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkspaceVariantsZeroAlloc pins the headline property of this
// package's hot path: the ...Into searches allocate nothing after warm-up.
func TestWorkspaceVariantsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	study, err := eval.NewStudy(2022)
	if err != nil {
		t.Fatal(err)
	}
	city := study.Cities["Copenhagen"]
	g, w := city.Graph, city.Public
	dst := graph.NodeID(g.NumNodes() - 1)
	ws := sp.NewWorkspace()

	check := func(name string, fn func()) {
		t.Helper()
		fn()
		if allocs := testing.AllocsPerRun(10, fn); allocs > 0 {
			t.Errorf("%s: %v allocs/op after warm-up, want 0", name, allocs)
		}
	}
	check("ShortestPathInto", func() { sp.ShortestPathInto(ws, g, w, 0, dst) })
	check("BuildTreeInto", func() { sp.BuildTreeInto(ws, g, w, 0, sp.Forward) })
	check("BidirectionalShortestPathInto", func() { sp.BidirectionalShortestPathInto(ws, g, w, 0, dst) })
}

// BenchmarkPlannerYen runs the related-work baseline on the smallest city
// only; Yen is polynomially more expensive, which is exactly the §II-D
// point about why it is not used for alternative routes directly.
func BenchmarkPlannerYen(b *testing.B) {
	study := benchSetup(b)
	city := study.Cities["Copenhagen"]
	queries := benchQueries(b, city, simstudy.Small, 4)
	pl := core.NewYen(city.Graph, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := pl.Alternatives(q.S, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Many-to-many matrix engine (PR 6) --------------------------------------

// benchClusteredNodes samples count distinct nodes within radiusM meters
// of a center offset, so matrix benchmarks get endpoint sets whose cell
// union stays a restricted fraction of the network.
func benchClusteredNodes(b *testing.B, city *eval.City, count int, dEast, dNorth, radiusM float64, seed int64) []graph.NodeID {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	center := geo.Offset(city.Graph.BBox().Center(), dEast, dNorth)
	seen := make(map[graph.NodeID]bool, count)
	out := make([]graph.NodeID, 0, count)
	for attempts := 0; len(out) < count; attempts++ {
		if attempts > count*200 {
			b.Fatalf("cannot sample %d distinct nodes within %.0fm", count, radiusM)
		}
		p := geo.Offset(center, (rng.Float64()*2-1)*radiusM, (rng.Float64()*2-1)*radiusM)
		v, _ := city.Index.Nearest(p)
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// benchMatrix times one warm k×k MatrixInto per op: the shared selection
// is cache-hot, each op runs k restricted forward sweeps. A one-worker
// engine keeps the rows inline — the zero-allocation path.
func benchMatrix(b *testing.B, m *core.MatrixEngine, sources, targets []graph.NodeID) {
	b.Helper()
	var tab core.Table
	if err := m.MatrixInto(&tab, sources, targets); err != nil {
		b.Fatal(err)
	}
	if !tab.Restricted {
		b.Logf("warning: sweeps not restricted (selection %d targets)", tab.SelectionTargets)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tab.SelectionTargets), "sel-targets")
}

// benchMatrixPairwise is the k² baseline: the same table via independent
// point-to-point tree-pair queries through the same backend.
func benchMatrixPairwise(b *testing.B, m *core.MatrixEngine, sources, targets []graph.NodeID) {
	b.Helper()
	var tab core.Table
	if err := m.MatrixPairwise(&tab, sources, targets); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MatrixPairwise(&tab, sources, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridCity wraps the synthetic benchmark grid in an eval.City shell
// (graph + spatial index only) so the clustered samplers work on it.
func benchGridCity(rows, cols int) *eval.City {
	g := benchGrid(rows, cols)
	return &eval.City{Graph: g, Index: spatial.NewIndex(g, 16)}
}

func benchMatrixGrid50(b *testing.B, k int, pairwise bool) {
	city := benchGridCity(50, 50)
	m := core.NewMatrixEngine(city.Graph, core.Options{TreeBackend: core.TreeCHAuto}, core.NewEngine(1))
	sources := benchClusteredNodes(b, city, k, -800, -600, 1200, 101)
	targets := benchClusteredNodes(b, city, k, 700, 500, 1200, 102)
	if pairwise {
		benchMatrixPairwise(b, m, sources, targets)
	} else {
		benchMatrix(b, m, sources, targets)
	}
}

func BenchmarkMatrixGrid50K4(b *testing.B)  { benchMatrixGrid50(b, 4, false) }
func BenchmarkMatrixGrid50K16(b *testing.B) { benchMatrixGrid50(b, 16, false) }
func BenchmarkMatrixGrid50K64(b *testing.B) { benchMatrixGrid50(b, 64, false) }

func BenchmarkMatrixPairwiseGrid50K16(b *testing.B) { benchMatrixGrid50(b, 16, true) }

func benchMatrixMelbourne(b *testing.B, k int, pairwise bool) {
	study := benchSetup(b)
	city := study.Cities["Melbourne"]
	m := core.NewMatrixEngine(city.Graph, core.Options{TreeBackend: core.TreeCHAuto}, core.NewEngine(1))
	sources := benchClusteredNodes(b, city, k, -1500, -1000, 2000, 103)
	targets := benchClusteredNodes(b, city, k, 1200, 900, 2000, 104)
	if pairwise {
		benchMatrixPairwise(b, m, sources, targets)
	} else {
		benchMatrix(b, m, sources, targets)
	}
}

// BenchmarkMatrixMelbourne is the acceptance benchmark: a warm 16×16
// table on the Melbourne study network, one shared cached selection plus
// 16 restricted sweeps per op, zero allocations. Compare against
// BenchmarkMatrixPairwiseMelbourne (the same 16² cells as independent
// point-to-point restricted queries).
func BenchmarkMatrixMelbourne(b *testing.B) { benchMatrixMelbourne(b, 16, false) }

func BenchmarkMatrixMelbourneK4(b *testing.B)  { benchMatrixMelbourne(b, 4, false) }
func BenchmarkMatrixMelbourneK64(b *testing.B) { benchMatrixMelbourne(b, 64, false) }

func BenchmarkMatrixPairwiseMelbourne(b *testing.B) { benchMatrixMelbourne(b, 16, true) }

// BenchmarkSelectionCacheSelect is the miss-path cost: building the
// shared selection for a 16-target set from scratch onto warm reuse
// storage — the price amortized across every later hit.
func BenchmarkSelectionCacheSelect(b *testing.B) {
	city := benchGridCity(50, 50)
	w := city.Graph.CopyWeights()
	tb := cch.PreprocessShared(city.Graph).Customize(w).NewTreeBuilder()
	targets := benchClusteredNodes(b, city, 16, 700, 500, 1200, 102)
	sel := tb.Select(targets, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = tb.Select(targets, sel)
	}
}
