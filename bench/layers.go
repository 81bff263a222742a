package main

// Every import of repro/internal/... lives in this file, so a refactor of
// the layers breaks the benchmark in one place. The surface it pins is
// listed in README.md.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/sp"
	"repro/internal/spatial"
	"repro/internal/telemetry"
	"repro/internal/weights"
)

const (
	studySeed     = 2022 // the -seed the child is launched with
	replayOps     = 300  // requests of each workload the traced run replays (the smoke test: fewer)
	parityProbes  = 10   // per city: half routes, half matrix
	liveWriteGap  = 4    // live replay: every 4th operation is a write
	shapeSamples  = 20   // matrix microbenchmark tables per shape
	setupRepeats  = 3    // one-off builds (order, preprocessing, generation) timed per run
	oracleCells   = 50   // matrix cells checked against Dijkstra
	refCity       = "Melbourne"
	oracleRelTol  = 1e-9
	overheadLoops = 2000 // sequential hot round trips behind server.http_overhead_us
	overheadPairs = 5    // alternating untraced/traced hot passes behind bench.trace_overhead_ratio
)

// shipped is the study and server assembled in-process the way
// cmd/demoserver assembles them when every flag is left at its default.
// The parity gate holds it to that.
type shipped struct {
	study   *eval.Study
	srv     *server.Server
	buildMS float64 // eval.NewStudyOpts wall time
}

func newShipped() (*shipped, error) {
	// The handlers log every publish; the benchmark's stderr is for the
	// benchmark.
	log.SetOutput(io.Discard)
	backend, err := core.ParseTreeBackend("ch-auto")
	if err != nil {
		return nil, err
	}
	hkind, err := core.ParseHierarchyKind("cch")
	if err != nil {
		return nil, err
	}
	okind, err := core.ParseOrderKind("flow")
	if err != nil {
		return nil, err
	}
	qeng, err := core.ParseQueryEngine("elimtree")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	study, err := eval.NewStudyOpts(studySeed, core.Options{TreeBackend: backend, Hierarchy: hkind, Order: okind, Query: qeng})
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	engine := core.NewEngine(0)
	engine.SetCache(core.DefaultCacheSize)
	for _, name := range study.CityNames() {
		study.Cities[name].SetEngine(engine)
	}
	srv := server.New(study.Cities, "", server.WithMetrics(), server.WithIngest(), server.WithVerbose(false))
	return &shipped{study: study, srv: srv, buildMS: ms(build)}, nil
}

// handle serves one request in-process on a recorder; start and end
// enclose ServeHTTP alone.
func (sh *shipped) handle(r request) (status int, body []byte, start, end time.Time) {
	req := httptest.NewRequest(r.Method, r.Path, strings.NewReader(r.Body))
	rec := httptest.NewRecorder()
	start = time.Now()
	sh.srv.ServeHTTP(rec, req)
	end = time.Now()
	return rec.Code, rec.Body.Bytes(), start, end
}

// parityGate asserts that the in-process server answers byte-for-byte
// what the child answers, so layer numbers can never silently describe a
// configuration other than the shipped defaults. The child must be fresh
// apart from launch's set-up probes, which are replayed here first so
// both selection caches have seen the same history.
func (sh *shipped) parityGate(ctx context.Context, c *child, seed uint64, cities []city) error {
	for ci := range cities {
		sh.handle(probeRequest(cities, ci))
	}
	status, body, _, _ := sh.handle(request{Method: "GET", Path: "/api/cities"})
	var mine []city
	if err := json.Unmarshal(body, &mine); err != nil || status != http.StatusOK {
		return fmt.Errorf("parity: in-process /api/cities: status %d, %v", status, err)
	}
	if fmt.Sprint(mine) != fmt.Sprint(cities) {
		return fmt.Errorf("parity: /api/cities differs: child %v, in-process %v", cities, mine)
	}
	routes, err := newWorkload(wlRoutesUnique, seed^0x5eed, cities)
	if err != nil {
		return err
	}
	matrix, err := newWorkload(wlMatrixMixed, seed^0x5eed, cities)
	if err != nil {
		return err
	}
	for i := 0; i < parityProbes*len(cities); i++ {
		// Client 0's stream visits cities round-robin (two steps at a
		// time), so every city gets its share of both kinds.
		w := routes
		if i%2 == 1 {
			w = matrix
		}
		r := w.request(phaseWarm, 0, i)
		wantStatus, want, err := c.do(ctx, r)
		if err != nil {
			return fmt.Errorf("parity: child: %w", err)
		}
		gotStatus, got, _, _ := sh.handle(r)
		if wantStatus != gotStatus || !bytes.Equal(want, got) {
			return fmt.Errorf("parity: %s %s: child answered %d (%d bytes), in-process %d (%d bytes): the in-process study is not the shipped configuration",
				r.Method, r.Path, wantStatus, len(want), gotStatus, len(got))
		}
	}
	return nil
}

// hierAt is a standalone customization of one metric's snapshot: what a planner's provider holds internally, rebuilt through
// the public API so the stage replay can time the pieces.
type hierAt struct {
	w     []float64
	hier  ch.Hierarchy
	tb    *ch.TreeBuilder
	scale float64
}

// cityLayers holds the per-city pieces the stage replay calls into.
type cityLayers struct {
	c        *eval.City
	plateaus *core.Plateaus
	pre      *cch.Preprocessed
	grid     *spatial.Index // the providers' cell quantization
	lb       geo.LowerBounder
	public   hierAt
	traffic  hierAt
	perfect  hierAt
}

func newCityLayers(c *eval.City) (*cityLayers, error) {
	pl, ok := c.Planners[1].(*core.Plateaus)
	if !ok {
		return nil, fmt.Errorf("planner 1 of %s is %T, not *core.Plateaus", c.Profile.Name, c.Planners[1])
	}
	cl := &cityLayers{
		c:        c,
		plateaus: pl,
		pre:      cch.PreprocessSharedWith(c.Graph, cch.OrderConfig{Kind: cch.OrderFlow}),
		grid:     spatial.NewIndex(c.Graph, 0),
		lb:       geo.NewLowerBounder(c.Graph.BBox()),
	}
	cl.public = cl.customize(c.PublicStore.Latest(), cch.Config{})
	cl.traffic = cl.customize(c.TrafficStore.Latest(), cch.Config{})
	cl.perfect = cl.customize(c.PublicStore.Latest(), cch.Config{Perfect: true})
	return cl, nil
}

func (cl *cityLayers) customize(snap *weights.Snapshot, cfg cch.Config) hierAt {
	w := snap.Weights()
	h := cl.pre.CustomizeWith(w, cfg)
	return hierAt{w: w, hier: h, tb: h.NewTreeBuilder(), scale: sp.MinSecondsPerMeter(cl.c.Graph, w)}
}

func (cl *cityLayers) snap(p point) graph.NodeID {
	v, _ := cl.c.Index.Nearest(geo.Point{Lat: p.Lat, Lon: p.Lon})
	return v
}

// cellUnion returns the vertices of the given cells, each cell once —
// the target set a provider hands to Select.
func (cl *cityLayers) cellUnion(cells []int32) []graph.NodeID {
	slices.Sort(cells)
	var nodes []graph.NodeID
	for _, c := range slices.Compact(cells) {
		nodes = append(nodes, cl.grid.CellNodes(int(c))...)
	}
	return nodes
}

// profiler runs the traced, in-process half of the benchmark.
type profiler struct {
	sh     *shipped
	tr     *tracer
	seed   uint64
	cities []city
	layers map[string]*cityLayers
	ref    *cityLayers
	out    map[string]float64
	fail   *failures
	checks int
	ops    int // requests replayed per workload
	// how many replayed tree pairs ran restricted sweeps, of how many
	pairsRestricted, pairs int
}

func newProfiler(sh *shipped, seed uint64, cities []city, ops int, fail *failures) (*profiler, error) {
	p := &profiler{sh: sh, tr: newTracer(), seed: seed, cities: cities, layers: map[string]*cityLayers{}, out: map[string]float64{}, fail: fail, ops: ops}
	for _, c := range cities {
		ec, ok := sh.study.Cities[c.Name]
		if !ok {
			return nil, fmt.Errorf("city %s is not part of the in-process study", c.Name)
		}
		cl, err := newCityLayers(ec)
		if err != nil {
			return nil, err
		}
		p.layers[c.Name] = cl
	}
	p.ref = p.layers[refCity]
	if p.ref == nil {
		return nil, fmt.Errorf("no %s in the study", refCity)
	}
	return p, nil
}

// run replays every workload and the layer microbenchmarks and returns
// the per-layer metrics that do not need a child.
func (p *profiler) run() (map[string]float64, error) {
	p.out["eval.new_study_ms"] = p.sh.buildMS
	steps := []func() error{p.setupLayers, p.replayRoutesUnique, p.replayRoutesHot, p.replayMatrix, p.matrixShapes, p.replayLive}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	p.fromSpans()
	return p.out, nil
}

func (p *profiler) workload(name string) *workload {
	w, err := newWorkload(name, p.seed, p.cities)
	if err != nil {
		panic(err) // names are this package's constants
	}
	return w
}

func isRef(s span) bool { return s.City == refCity }

// spanMetrics are the per-layer metrics that are a quantile over the
// spans of the same name: "<span>[_p50|_p90]_<us|ms>", the median unless
// the name says p90, over the reference city's spans unless the span is
// in everyCity.
var spanMetrics = []string{
	"citygen.generate_ms", "spatial.build_ms", "cch.order_ms", "cch.preprocess_ms",
	"server.handler_miss_us", "server.handler_hit_us", "spatial.nearest_us",
	"core.engine.fanout_p50_us", "core.engine.fanout_p90_us",
	"core.commercial.alternatives_p50_us", "core.commercial.alternatives_p90_us",
	"core.plateaus.alternatives_p50_us", "core.plateaus.alternatives_p90_us",
	"core.dissimilarity.alternatives_p50_us", "core.dissimilarity.alternatives_p90_us",
	"core.penalty.alternatives_p50_us", "core.penalty.alternatives_p90_us",
	"core.plateaus.join_us", "ch.dist_p50_us", "ch.dist_p90_us",
	"ch.sweep_full_pair_us", "ch.sweep_full_pair_perfect_us",
	"sp.tree_us", "sp.shortest_path_us", "sp.bidirectional_us", "path.points_us",
	"server.matrix_handler_k16_us", "server.matrix_handler_k64_us",
	"core.matrix.table_clustered_k16_us", "core.matrix.table_clustered_k64_us",
	"core.matrix.table_spread_k16_us", "core.matrix.table_spread_k64_us",
	"ch.select_us", "ch.sweep_restricted_us",
	"core.router.traffic_publish_to_sync_ms", "core.router.public_publish_to_sync_ms",
	"core.router.publish_to_fresh_p90_ms",
	"cch.customize_w1_ms", "cch.customize_w2_ms", "cch.customize_perfect_ms",
	"weights.publish_us", "weights.ban_us", "traffic.weights_at_us", "telemetry.advance_us",
	"metrics.scrape_us",
}

// everyCity names the spans taken over all cities: writes cycle through
// the cities and there are too few per city.
var everyCity = map[string]bool{
	"core.router.traffic_publish_to_sync": true,
	"core.router.public_publish_to_sync":  true,
	"core.router.publish_to_fresh":        true,
	"metrics.scrape":                      true,
}

func (p *profiler) fromSpans() {
	for _, metric := range spanMetrics {
		name, unit := strings.TrimSuffix(metric, "_us"), time.Microsecond
		if trimmed, ok := strings.CutSuffix(metric, "_ms"); ok {
			name, unit = trimmed, time.Millisecond
		}
		q := 0.5
		if trimmed, ok := strings.CutSuffix(name, "_p90"); ok {
			name, q = trimmed, 0.9
		}
		name = strings.TrimSuffix(name, "_p50")
		keep := isRef
		if everyCity[name] {
			keep = nil
		}
		p.out[metric] = percentileOf(p.tr.durations(name, keep), q, unit)
	}
}

// handler serves r in-process under a span and fails the run on a
// non-200.
func (p *profiler) handler(name string, r request) (int, time.Duration, []byte) {
	status, body, start, end := p.sh.handle(r)
	id, d := p.tr.add(name, 0, start, end), end.Sub(start)
	p.checks++
	if status != http.StatusOK {
		p.fail.add("traced %s %s: status %d: %.200s", r.Method, r.Path, status, body)
	}
	return id, d, body
}

// setupLayers times the one-off builds behind setup_s on the reference
// city, each from scratch.
func (p *profiler) setupLayers() error {
	p.tr.request("setup", 0, refCity)
	var g *graph.Graph
	for i := 0; i < setupRepeats; i++ {
		var err error
		p.tr.do("citygen.generate", 0, func() { g, err = citygen.Melbourne().Generate(studySeed) })
		if err != nil {
			return err
		}
		p.tr.do("spatial.build", 0, func() { spatial.NewIndex(g, 16) })
		p.tr.do("cch.order", 0, func() { cch.OrderWith(g, cch.OrderConfig{Kind: cch.OrderFlow}) })
		// Preprocessing computes the order itself: cch.preprocess_ms
		// contains cch.order_ms.
		p.tr.do("cch.preprocess", 0, func() { cch.PreprocessWith(g, cch.OrderConfig{Kind: cch.OrderFlow}) })
	}
	p.out["cch.triangles"] = float64(p.ref.pre.NumTriangles())
	p.out["cch.pairs"] = float64(p.ref.pre.NumPairs())
	p.out["ch.arcs"] = float64(p.ref.public.hier.NumArcs())
	p.out["ch.elim_height"] = float64(p.ref.pre.ElimTree().Height())
	return nil
}

// replayRoutesUnique is the stage-by-stage account of a cache-missing
// /api/routes request: the handler first, then the same input through
// each layer's public entry point under the same weight version.
func (p *profiler) replayRoutesUnique() error {
	w := p.workload(wlRoutesUnique)
	eng0 := core.NewEngine(0) // the shipped worker bound, no result cache
	eng0.SetCache(0)
	ws := sp.GetWorkspace()
	defer ws.Release()
	var encodeSelf, residual, speedup, respBytes []float64
	for i := 0; i < p.ops; i++ {
		r := w.request(phaseMeasure, i%numClients, i/numClients)
		cl := p.layers[p.cities[r.City].Name]
		p.tr.request(w.name, i, cl.c.Profile.Name)
		root, miss, body := p.handler("server.handler_miss", r)
		_, hit, _ := p.handler("server.handler_hit", r)
		if cl != p.ref {
			continue
		}
		resp, err := checkRoutes(body, false)
		if err != nil {
			p.fail.add("traced routes request %d: %v", i, err)
			continue
		}
		respBytes = append(respBytes, float64(len(body)))

		var s, t graph.NodeID
		_, n1 := p.tr.do("spatial.nearest", root, func() { s = cl.snap(r.Pair.S) })
		_, n2 := p.tr.do("spatial.nearest", root, func() { t = cl.snap(r.Pair.T) })
		_, probe := p.tr.do("core.engine.probe", root, func() { _, err = cl.c.RunPlanners(eval.Query{S: s, T: t}) })
		if err != nil {
			return err
		}
		var results []core.Result
		_, fanout := p.tr.do("core.engine.fanout", root, func() { results = eng0.Alternatives(cl.c.Planners[:], s, t) })

		// The four planners, one after the other.
		names := [numApproaches]string{"core.commercial.alternatives", "core.plateaus.alternatives", "core.dissimilarity.alternatives", "core.penalty.alternatives"}
		var serial time.Duration
		var ids [numApproaches]int
		for k, pl := range cl.c.Planners {
			var d time.Duration
			ids[k], d = p.tr.do(names[k], root, func() { _, err = pl.Alternatives(s, t) })
			if err != nil {
				return fmt.Errorf("%s on %d->%d: %w", names[k], s, t, err)
			}
			serial += d
		}
		speedup = append(speedup, float64(serial)/float64(fanout))

		// Under Commercial and Plateaus: bound, selection, sweeps, join.
		p.pairStages(ws, cl, ids[0], cl.traffic, s, t)
		p.pairStages(ws, cl, ids[1], cl.public, s, t)
		// Under Dissimilarity: its two full Dijkstra trees. Under
		// Penalty: one of its (up to K) shortest-path searches, which
		// doubles as the oracle for Plateaus' first route.
		pub := cl.public.w
		p.tr.do("sp.tree", ids[2], func() { sp.BuildTreeInto(ws, cl.c.Graph, pub, s, sp.Forward) })
		p.tr.do("sp.tree", ids[2], func() { sp.BuildTreeInto(ws, cl.c.Graph, pub, t, sp.Backward) })
		var oracle float64
		p.tr.do("sp.shortest_path", ids[3], func() { _, oracle = sp.ShortestPathInto(ws, cl.c.Graph, pub, s, t) })
		p.checks++
		if got := results[1].Routes; len(got) == 0 || !near(got[0].TimeS, oracle) {
			p.fail.add("traced routes request %d: Plateaus' first route disagrees with the Dijkstra oracle (%v)", i, oracle)
		}

		// Layer microbenchmarks on the same pair.
		p.tr.do("sp.bidirectional", 0, func() { sp.BidirectionalShortestPathInto(ws, cl.c.Graph, pub, s, t) })
		var fwd, bwd *sp.Tree
		p.tr.do("ch.sweep_full_pair", 0, func() {
			fwd = cl.public.tb.BuildTreeInto(ws, s, sp.Forward)
			bwd = cl.public.tb.BuildTreeInto(ws, t, sp.Backward)
		})
		p.tr.do("core.plateaus.join", 0, func() { cl.plateaus.FindPlateaus(fwd, bwd) })
		p.tr.do("ch.sweep_full_pair_perfect", 0, func() {
			cl.perfect.tb.BuildTreeInto(ws, s, sp.Forward)
			cl.perfect.tb.BuildTreeInto(ws, t, sp.Backward)
		})

		// What is left of the handler once planning is done.
		_, points := p.tr.do("path.points", root, func() {
			for _, res := range results {
				for _, rt := range res.Routes {
					rt.Points(cl.c.Graph)
				}
			}
		})
		_, encode := p.tr.do("server.encode", root, func() { err = json.NewEncoder(io.Discard).Encode(resp) })
		if err != nil {
			return err
		}
		encodeSelf = append(encodeSelf, us(hit-n1-n2-probe))
		residual = append(residual, us(miss-n1-n2-fanout-points-encode))
	}
	p.out["server.handler_miss_residual_us"] = median(residual)
	p.out["server.encode_self_us"] = median(encodeSelf)
	p.out["server.resp_bytes_routes"] = median(respBytes)
	p.out["core.engine.parallel_speedup"] = median(speedup)
	return nil
}

// pairStages replays what a choice-routing planner does for one pair on
// a restricted-auto hierarchy backend: the fastest-time bound, the
// elliptic cell union and its selection (as on a selection-cache miss),
// the tree pair, and the plateau join.
func (p *profiler) pairStages(ws *sp.Workspace, cl *cityLayers, parent int, h hierAt, s, t graph.NodeID) {
	g := cl.c.Graph
	var fastest float64
	p.tr.do("ch.dist", parent, func() { fastest = h.hier.Dist(s, t) })
	if math.IsInf(fastest, 1) || h.scale <= 0 {
		return
	}
	var sel *ch.Selection
	p.tr.do("ch.pair_select", parent, func() {
		budget := core.DefaultUpperBound * fastest / h.scale
		cells := cl.grid.EllipseCells(g.Point(s), g.Point(t), budget, cl.lb, nil)
		cells = append(cells, int32(cl.grid.CellOf(g.Point(s))), int32(cl.grid.CellOf(g.Point(t))))
		nodes := cl.cellUnion(cells)
		if float64(len(nodes)) <= core.RestrictedAutoFraction*float64(g.NumNodes()) {
			sel = h.tb.Select(nodes, nil)
		}
	})
	p.pairs++
	if sel != nil {
		p.pairsRestricted++
	}
	var fwd, bwd *sp.Tree
	p.tr.do("ch.pair_sweep", parent, func() {
		if sel == nil {
			fwd = h.tb.BuildTreeInto(ws, s, sp.Forward)
			bwd = h.tb.BuildTreeInto(ws, t, sp.Backward)
			return
		}
		fwd = h.tb.BuildTreeRestrictedInto(ws, s, sp.Forward, sel)
		bwd = h.tb.BuildTreeRestrictedInto(ws, t, sp.Backward, sel)
	})
	// Timed with the Plateaus planner's join on either metric: the join
	// is the same code, and only its duration is read.
	p.tr.do("core.plateaus.pair_join", parent, func() { cl.plateaus.FindPlateaus(fwd, bwd) })
}

// replayRoutesHot replays the hot stream: after one untimed pass that
// fills the cache, alternating passes with span recording off and on
// give the tracing overhead (median ratio over the pairs); the recorded
// passes show how little of a hit the planners are.
func (p *profiler) replayRoutesHot() error {
	w := p.workload(wlRoutesHot)
	pass := func() time.Duration {
		var total time.Duration
		for i := 0; i < p.ops; i++ {
			r := w.request(phaseMeasure, i%numClients, i/numClients)
			cl := p.layers[p.cities[r.City].Name]
			p.tr.request(w.name, i, cl.c.Profile.Name)
			_, d, _ := p.handler("server.handler_hit", r)
			total += d
			if !p.tr.off && cl == p.ref {
				s, t := cl.snap(r.Pair.S), cl.snap(r.Pair.T)
				p.tr.do("core.engine.probe", 0, func() { cl.c.RunPlanners(eval.Query{S: s, T: t}) })
			}
		}
		return total
	}
	p.tr.off = true
	pass()
	var ratios []float64
	for pair := 0; pair < overheadPairs; pair++ {
		p.tr.off = true
		off := pass()
		p.tr.off = false
		on := pass()
		ratios = append(ratios, float64(on)/float64(off))
	}
	p.out["bench.trace_overhead_ratio"] = median(ratios)
	return nil
}

// replayMatrix replays the matrix stream through the handler and checks
// sampled cells against Dijkstra.
func (p *profiler) replayMatrix() error {
	w := p.workload(wlMatrixMixed)
	ws := sp.GetWorkspace()
	defer ws.Release()
	var hits, restricted, tables int
	var selTargets, bytesK64 []float64
	oracleLeft := oracleCells
	for i := 0; i < p.ops; i++ {
		r := w.request(phaseMeasure, i%numClients, i/numClients)
		cl := p.layers[p.cities[r.City].Name]
		p.tr.request(w.name, i, cl.c.Profile.Name)
		_, _, body := p.handler(fmt.Sprintf("server.matrix_handler_k%d", r.K), r)
		m, err := checkMatrix(body, r.K)
		if err != nil {
			p.fail.add("traced matrix request %d: %v", i, err)
			continue
		}
		tables++
		if m.SelectionHit {
			hits++
		}
		if m.Restricted {
			restricted++
			selTargets = append(selTargets, float64(m.Selection))
		}
		if cl != p.ref {
			continue
		}
		if r.K == 64 {
			bytesK64 = append(bytesK64, float64(len(body)))
		}
		if oracleLeft > 0 {
			// One cell per table, on the diagonal band so both small and
			// large tables contribute.
			oracleLeft--
			si, ti := i%r.K, (i/3)%r.K
			var want float64
			_, want = sp.ShortestPathInto(ws, cl.c.Graph, cl.c.PublicStore.Latest().Weights(), cl.snap(r.Sources[si]), cl.snap(r.Targets[ti]))
			got := math.Inf(1)
			if c := m.Seconds[si][ti]; c != nil {
				got = *c
			}
			p.checks++
			if !near(got, want) {
				p.fail.add("traced matrix request %d: cell %d,%d is %v, Dijkstra says %v", i, si, ti, got, want)
			}
		}
	}
	if tables == 0 {
		return fmt.Errorf("matrix replay produced no tables")
	}
	p.out["server.resp_bytes_matrix_k64"] = median(bytesK64)
	p.out["core.matrix.selection_hit_ratio"] = float64(hits) / float64(tables)
	p.out["core.matrix.restricted_ratio"] = float64(restricted) / float64(tables)
	p.out["core.matrix.selection_targets"] = median(selTargets)
	return nil
}

// matrixShapes times MatrixInto per shape on the reference city, and the
// ch calls under it — selection and one restricted sweep — on the
// clustered k=16 target sets.
func (p *profiler) matrixShapes() error {
	w := p.workload(wlMatrixMixed)
	cl := p.ref
	ci := slices.IndexFunc(p.cities, func(c city) bool { return c.Name == refCity })
	ws := sp.GetWorkspace()
	defer ws.Release()
	var tab core.Table
	var selNodes []float64
	for _, shape := range []struct {
		name      string
		k         int
		clustered bool
	}{{"clustered_k16", 16, true}, {"clustered_k64", 64, true}, {"spread_k16", 16, false}, {"spread_k64", 64, false}} {
		r := newRNG(p.seed, w.id, 200, uint64(shape.k))
		for i := 0; i < shapeSamples; i++ {
			req := w.matrixShaped(&r, ci, shape.name, shape.k, shape.clustered)
			p.tr.request("matrix_shapes", i, refCity)
			sources := make([]graph.NodeID, shape.k)
			targets := make([]graph.NodeID, shape.k)
			for j := range sources {
				sources[j], targets[j] = cl.snap(req.Sources[j]), cl.snap(req.Targets[j])
			}
			var err error
			p.tr.do("core.matrix.table_"+shape.name, 0, func() { err = cl.c.Matrix.MatrixInto(&tab, sources, targets) })
			if err != nil {
				return err
			}
			if shape.name != "clustered_k16" {
				continue
			}
			var sel *ch.Selection
			p.tr.do("ch.select", 0, func() {
				var cells []int32
				for _, t := range targets {
					cells = append(cells, int32(cl.grid.CellOf(cl.c.Graph.Point(t))))
				}
				sel = cl.public.tb.Select(cl.cellUnion(cells), nil)
			})
			p.tr.do("ch.sweep_restricted", 0, func() { cl.public.tb.BuildTreeRestrictedInto(ws, sources[0], sp.Forward, sel) })
			fwd, _ := sel.SweptNodes()
			selNodes = append(selNodes, float64(fwd))
		}
	}
	p.out["ch.selection_nodes"] = median(selNodes)
	return nil
}

// replayLive replays reads beside writes on one goroutine. Every
// liveWriteGap-th operation is the writer's next tick. Writes alternate
// between two measurements that exclude each other: handler plus
// Router.Sync (publish to sync), and handler plus polling the probe pair
// until the new version answers (publish to fresh). After each write on
// the reference city the bench customizes the new snapshot itself, three
// ways, and times the write path's own layers on stand-alone stores.
func (p *profiler) replayLive() error {
	w := p.workload(wlLiveTraffic)
	tracker := newVersionTracker(len(p.cities))
	stream := w.writer()
	var scrapeBytes []float64

	// Stand-alone write-path fixtures: same data, no subscribers.
	ref := p.ref.c
	store := weights.NewStore(ref.Graph.BaseWeights())
	ingStore := weights.NewStore(ref.Traffic)
	ing := telemetry.NewIngestor(ingStore, ref.Traffic, telemetry.Config{})
	storm := telemetry.Scenario{Kind: telemetry.IncidentStorm, Seed: int64(p.seed % (1 << 31)), Edges: stormEdges}

	tick, read := 0, 0
	for i := 0; i < p.ops; i++ {
		if i%liveWriteGap != liveWriteGap-1 {
			r := w.request(phaseMeasure, 0, read)
			read++
			p.tr.request(w.name, i, p.cities[r.City].Name)
			_, _, body := p.handler("server.handler", r)
			if v, ok := scanVersions(body); ok {
				if err := tracker.observe(r.City, v); err != nil {
					p.fail.add("traced live request %d: %v", i, err)
				}
			}
			continue
		}
		r := stream.tick(tick)
		ci := r.City
		cl := p.layers[p.cities[ci].Name]
		p.tr.request(w.name, i, cl.c.Profile.Name)
		store0 := "traffic"
		if r.Kind == kindBan {
			store0 = "public"
		}
		if (tick+tick/len(writerPattern))%2 == 0 {
			p.tr.do("core.router."+store0+"_publish_to_sync", 0, func() {
				p.handler("server.write_handler", r)
				cl.c.Router.Sync()
			})
		} else {
			p.tr.do("core.router.publish_to_fresh", 0, func() {
				_, _, body := p.handler("server.write_handler", r)
				var wr writeResponse
				if err := json.Unmarshal(body, &wr); err != nil {
					p.fail.add("traced write %d: %v", tick, err)
					return
				}
				approach, target := wr.visibleAs(r.Kind)
				err := awaitVersion(func() ([numApproaches]uint64, error) {
					_, _, body := p.handler("server.probe_handler", probeRequest(p.cities, ci))
					v, ok := scanVersions(body)
					if !ok {
						return v, errors.New("probe: no weight versions in body")
					}
					return v, tracker.observe(ci, v)
				}, approach, target)
				if err != nil {
					p.fail.add("traced write %d: %v", tick, err)
				}
			})
		}
		cl.c.Router.Sync() // the next read sees one version everywhere
		if tick%4 == 3 {
			_, _, body := p.handler("metrics.scrape", metricsRequest)
			scrapeBytes = append(scrapeBytes, float64(len(body)))
		}
		if cl == p.ref {
			snap := ref.TrafficStore.Latest()
			if r.Kind == kindBan {
				snap = ref.PublicStore.Latest()
			}
			for _, cz := range []struct {
				name string
				cfg  cch.Config
			}{
				{"cch.customize_w1", cch.Config{Workers: 1}},
				{"cch.customize_w2", cch.Config{Workers: 2}},
				{"cch.customize_perfect", cch.Config{Perfect: true}},
			} {
				p.tr.do(cz.name, 0, func() { cl.pre.CustomizeWith(snap.Weights(), cz.cfg).NewTreeBuilder() })
			}
			var next []float64
			p.tr.do("traffic.weights_at", 0, func() { next = ref.Seq.WeightsAt(tick) })
			p.tr.do("weights.publish", 0, func() { store.Publish(next) })
			p.tr.do("weights.ban", 0, func() { store.Ban(graph.EdgeID(tick % banEdgeRange)) })
			obs := storm.Observations(ref.Graph, tick+1)
			var err error
			p.tr.do("telemetry.advance", 0, func() { _, err = ing.Advance(obs, 0) })
			if err != nil {
				return err
			}
		}
		tick++
	}
	p.out["core.router.mixed_version_responses"] = float64(tracker.mixed)
	p.out["metrics.scrape_bytes"] = median(scrapeBytes)
	return nil
}

// budget is the written layer budget of a reference-city /api/routes
// request: per line, the median over the replayed requests and its share
// of the median handler time.
type budgetLine struct {
	Name  string  `json:"name"`
	P50US float64 `json:"p50_us"`
	Share float64 `json:"share"`
}

func (p *profiler) budget() []budgetLine {
	total := p.out["server.handler_miss_us"]
	line := func(label string, v float64) budgetLine { return budgetLine{label, v, v / total} }
	sum := func(name string, parentName string) float64 {
		// Per request: the summed duration of the named spans under a
		// parent span of the given name; then the median over requests.
		parents := map[int]bool{}
		for _, s := range p.tr.spans {
			if s.Name == parentName && isRef(s) && s.Workload == wlRoutesUnique {
				parents[s.ID] = true
			}
		}
		per := map[int]float64{}
		for _, s := range p.tr.spans {
			if s.Name == name && parents[s.Parent] {
				per[s.Parent] += us(s.dur())
			}
		}
		vals := make([]float64, 0, len(per))
		for _, v := range per {
			vals = append(vals, v)
		}
		return median(vals)
	}
	out := []budgetLine{
		line("server.handler_miss", total),
		line("  spatial.nearest x2", sum("spatial.nearest", "server.handler_miss")),
		line("  core.engine.fanout (4 planners, 2 workers)", p.out["core.engine.fanout_p50_us"]),
		line("  path.points", p.out["path.points_us"]),
		line("  server.encode (JSON)", sum("server.encode", "server.handler_miss")),
		line("  residual (parse, mux, recorder, route assembly)", p.out["server.handler_miss_residual_us"]),
	}
	for _, pl := range []string{"commercial", "plateaus"} {
		parent := "core." + pl + ".alternatives"
		alt := p.out[parent+"_p50_us"]
		parts := []budgetLine{
			line("    ch.dist", sum("ch.dist", parent)),
			line("    ch.pair_select (as on a selection-cache miss)", sum("ch.pair_select", parent)),
			line(fmt.Sprintf("    ch.pair_sweep (restricted on %d of %d pairs, else full)", p.pairsRestricted, p.pairs), sum("ch.pair_sweep", parent)),
			line("    core.plateaus.pair_join", sum("core.plateaus.pair_join", parent)),
		}
		self := alt
		for _, l := range parts {
			self -= l.P50US
		}
		out = append(out, line("  "+parent+" (serial)", alt))
		out = append(out, parts...)
		out = append(out, line("    self (ranking, assembly, similarity)", self))
	}
	dis := p.out["core.dissimilarity.alternatives_p50_us"]
	trees := sum("sp.tree", "core.dissimilarity.alternatives")
	out = append(out,
		line("  core.dissimilarity.alternatives (serial)", dis),
		line("    sp.tree x2", trees),
		line("    self (via paths, similarity)", dis-trees),
		line("  core.penalty.alternatives (serial)", p.out["core.penalty.alternatives_p50_us"]),
		line("    sp.shortest_path x1 (of up to K per query)", p.out["sp.shortest_path_us"]),
	)
	return out
}

// hotShare is the planners' part of a cache-hitting request: the cached
// four-planner fan-out over the handler time, on the hot replay.
func (p *profiler) hotShare() float64 {
	hot := func(s span) bool { return isRef(s) && s.Workload == wlRoutesHot }
	probe := percentileOf(p.tr.durations("core.engine.probe", hot), 0.5, time.Microsecond)
	hit := percentileOf(p.tr.durations("server.handler_hit", hot), 0.5, time.Microsecond)
	return probe / hit
}

// customizeWorkloads lists the workloads under which customization spans
// were recorded; the isolation claim is that it is live_traffic alone.
func (p *profiler) customizeWorkloads() []string {
	seen := map[string]bool{}
	for _, s := range p.tr.spans {
		if strings.HasPrefix(s.Name, "cch.customize") {
			seen[s.Workload] = true
		}
	}
	var out []string
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// httpOverhead is the child's one-client round trip on a cached request
// minus the in-process handler time for the same request.
func httpOverhead(ctx context.Context, c *child, sh *shipped, cities []city) (float64, error) {
	r := probeRequest(cities, 0)
	cn := newConn(c.base)
	defer cn.close()
	lat := make([]time.Duration, 0, overheadLoops)
	inproc := make([]time.Duration, 0, overheadLoops)
	for i := 0; i < overheadLoops+1; i++ {
		start := time.Now()
		status, _, err := cn.do(ctx, r)
		d := time.Since(start)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("http overhead probe: status %d, %v", status, err)
		}
		_, _, start, end := sh.handle(r)
		if i > 0 { // the first pass fills both caches
			lat, inproc = append(lat, d), append(inproc, end.Sub(start))
		}
	}
	return percentileOf(lat, 0.5, time.Microsecond) - percentileOf(inproc, 0.5, time.Microsecond), nil
}

func near(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= oracleRelTol*math.Max(math.Abs(a), math.Abs(b))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
