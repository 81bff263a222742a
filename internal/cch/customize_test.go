package cch

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/traffic"
)

// perturbedWeights returns a ±50% multiplicative perturbation of the base
// weights with the given fraction of random +Inf closures — the snapshot
// family the customization contract is stated over.
func perturbedWeights(g *graph.Graph, seed int64, closureFrac float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := g.CopyWeights()
	for i := range w {
		w[i] *= 0.5 + rng.Float64()
	}
	for i := range w {
		if rng.Float64() < closureFrac {
			w[i] = math.Inf(1)
		}
	}
	return w
}

// columnDiff reports the first arc at which tb's columns, read back in
// arc order (ch.TreeBuilder.ArcColumns), differ from the arc-order
// reference (ww, we) in weight bits or arc ends, or -1. A perfect
// customization's dropped arcs are not compared; a basic customization
// keeps every arc, and one it lacks is a difference. Columns of
// different lengths differ at arc 0.
func columnDiff(tb *ch.TreeBuilder, perfect bool, ww []float64, we []ch.ArcEnds) int {
	gw, ge, in := tb.ArcColumns()
	if len(gw) != len(ww) || len(we) != len(ww) {
		return 0
	}
	for i := range gw {
		if !in[i] && perfect {
			continue
		}
		if !in[i] || math.Float64bits(gw[i]) != math.Float64bits(ww[i]) || ge[i] != we[i] {
			return i
		}
	}
	return -1
}

// network is one customization test input: a graph, its preprocessing
// and the named metrics to customize it with.
type network struct {
	name    string
	g       *graph.Graph
	pre     *Preprocessed
	metrics map[string][]float64
}

// studyNets caches studyNetworks across the tests of one binary.
var studyNets []network

// studyNetworks returns the three study cities (seed 2022, flow order,
// the order the server runs) under the base metric, a traffic metric and
// a ±50 % perturbation with 10 % closures. The slice is clipped, so a
// caller's append never writes into the cache.
func studyNetworks(t *testing.T) []network {
	t.Helper()
	if studyNets != nil {
		return slices.Clip(studyNets)
	}
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		studyNets = append(studyNets, network{prof.Name, g, PreprocessWith(g, OrderConfig{Kind: OrderFlow}), map[string][]float64{
			"base":     g.BaseWeights(),
			"traffic":  traffic.Apply(g, traffic.DefaultModel(2022)),
			"closures": perturbedWeights(g, 2022, 0.10),
		}})
	}
	return slices.Clip(studyNets)
}

// TestPerfectCustomization checks the perfect post-pass end to end, on a
// grid and a random network under 20 % closures and on the three study
// cities under base, traffic and 10 % closures: the columns of every arc
// it keeps equal the basic ones (weights, arc ends — so routes cannot
// move); it drops whole pairs, a nonzero number of them, and each arc of
// a dropped pair is +Inf or strictly above the basic distance between
// its endpoints; distances stay exact; and full PHAST trees — distances
// and parents — are identical with and without the pruning.
func TestPerfectCustomization(t *testing.T) {
	var nets []network
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(33, 200)} {
		nets = append(nets, network{fmt.Sprintf("graph %d", gi), g, Preprocess(g), map[string][]float64{
			"closures": perturbedWeights(g, int64(100+gi), 0.20),
		}})
	}
	nets = append(nets, studyNetworks(t)...)
	for ni, net := range nets {
		for name, w := range net.metrics {
			checkPerfect(t, net.name+"/"+name, net.g, net.pre, w, int64(ni))
		}
	}
}

// checkPerfect runs TestPerfectCustomization's checks on one metric; seed
// picks the distance queries and the tree roots.
func checkPerfect(t *testing.T, name string, g *graph.Graph, pre *Preprocessed, w []float64, seed int64) {
	t.Helper()
	basic := pre.CustomizeWith(w, Config{})
	perfect := pre.CustomizeWith(w, Config{Perfect: true})

	bw, be, _ := basic.ArcColumns()
	if i := columnDiff(perfect, true, bw, be); i >= 0 {
		t.Fatalf("%s: perfect pass changed arc %d's columns", name, i)
	}
	if 2*basic.NumSweepArcs() != basic.NumArcs() {
		t.Fatalf("%s: basic sweeps relax %d of %d arcs per direction", name, basic.NumSweepArcs(), basic.NumArcs())
	}
	dropped := basic.NumSweepArcs() - perfect.NumSweepArcs()
	if dropped <= 0 {
		t.Fatalf("%s: perfect customization proved no pair inert: %d pairs swept vs basic %d", name, perfect.NumSweepArcs(), basic.NumSweepArcs())
	}
	t.Logf("%s: %d/%d pairs inert (%.1f %%)", name, dropped, pre.NumPairs(), 100*float64(dropped)/float64(pre.NumPairs()))

	// A pair goes whole, and only when neither arc can win a relaxation:
	// each is +Inf or strictly dominated by its endpoints' distance. The
	// distances are checked on every stride-th pair, about 1,000 pairs
	// per metric, so the study cities stay cheap under -race.
	_, _, in := perfect.ArcColumns()
	stride := max(1, pre.NumPairs()/1000)
	for q := range pre.lo {
		if in[2*q] != in[2*q+1] {
			t.Fatalf("%s: pair %d keeps one arc of two", name, q)
		}
		if in[2*q] || q%stride != 0 {
			continue
		}
		lo, hi := pre.lo[q], pre.hi[q]
		for _, a := range []struct {
			w    float64
			s, t graph.NodeID
		}{{bw[2*q], lo, hi}, {bw[2*q+1], hi, lo}} {
			if d := basic.Dist(a.s, a.t); !math.IsInf(a.w, 1) && !(a.w > d) {
				t.Fatalf("%s: pair %d dropped, but its arc %d->%d weighs %v against distance %v", name, q, a.s, a.t, a.w, d)
			}
		}
	}

	checkDistances(t, g, perfect, w, 40, 7*seed+1)

	// Inert pairs are strictly dominated, so they can never achieve a
	// sweep minimum — parents (not just distances) must match the
	// unpruned trees exactly, ties included.
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < 5; q++ {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
			bt := basic.BuildTree(root, dir)
			pt := perfect.BuildTree(root, dir)
			for v := range bt.Dist {
				if math.Float64bits(bt.Dist[v]) != math.Float64bits(pt.Dist[v]) || bt.Parent[v] != pt.Parent[v] {
					t.Fatalf("%s root %d dir %v: tree differs at %d: (%f, %d) vs (%f, %d)",
						name, root, dir, v, bt.Dist[v], bt.Parent[v], pt.Dist[v], pt.Parent[v])
				}
			}
		}
	}
}

// TestConcurrentCustomizeDistinctBuffers is the race smoke for the
// customization output: many goroutines customizing one shared
// Preprocessed concurrently must each get their own weight and arc-end
// columns (never a column another in-flight customization is still
// writing, nor pooled scratch another one reuses): once all have
// finished, every builder's columns, read back in arc order, equal the
// reference for its own metric bit for bit, and every builder answers
// exactly for its own metric. Run under -race this also proves the
// shared sweep topology and the pooled scratch are used safely.
func TestConcurrentCustomizeDistinctBuffers(t *testing.T) {
	g := randomCity(31, 150)
	pre := Preprocess(g)
	const workers = 8
	tbs := make([]*ch.TreeBuilder, workers)
	ws := make([][]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i] = perturbedWeights(g, int64(i), 0.05)
			tbs[i] = pre.CustomizeWith(ws[i], Config{Perfect: i%2 == 0})
		}(i)
	}
	wg.Wait()
	for i, tb := range tbs {
		wantW, wantE := refColumns(pre, ws[i])
		if ai := columnDiff(tb, i%2 == 0, wantW, wantE); ai >= 0 {
			t.Fatalf("customization %d differs from its own metric's reference at arc %d", i, ai)
		}
		checkDistances(t, g, tb, ws[i], 15, int64(900+i))
	}
}

// refArc is the reference customization's per-arc record: the weight and
// either the cheapest original edge or the two constituent arcs of the
// winning lower triangle, in path order (-1 when absent).
type refArc struct {
	w            float64
	orig         graph.EdgeID
	skip1, skip2 int32
}

// refColumns is the reference for CustomizeWith's columns: it records
// each arc's winning decomposition in an arc array and then resolves each
// arc's boundary original edges by recursing into the decomposition —
// first into the lower half, last into the upper — independent of the
// order the triangle pass finalizes pairs in.
func refColumns(p *Preprocessed, weights []float64) ([]float64, []ch.ArcEnds) {
	P := len(p.lo)
	arcs := make([]refArc, 2*P)
	inf := math.Inf(1)
	for i := 0; i < P; i++ {
		up := refArc{w: inf, orig: -1, skip1: -1, skip2: -1}
		for _, e := range p.upEdges[p.upOff[i]:p.upOff[i+1]] {
			if weights[e] < up.w {
				up.w, up.orig = weights[e], e
			}
		}
		down := refArc{w: inf, orig: -1, skip1: -1, skip2: -1}
		for _, e := range p.downEdges[p.downOff[i]:p.downOff[i+1]] {
			if weights[e] < down.w {
				down.w, down.orig = weights[e], e
			}
		}
		arcs[2*i], arcs[2*i+1] = up, down
	}
	for i := int32(0); i < int32(P); i++ {
		up, down := &arcs[2*i], &arcs[2*i+1]
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := arcs[2*za+1].w + arcs[2*zb].w; c < up.w {
				up.w, up.orig, up.skip1, up.skip2 = c, -1, 2*za+1, 2*zb
			}
			if c := arcs[2*zb+1].w + arcs[2*za].w; c < down.w {
				down.w, down.orig, down.skip1, down.skip2 = c, -1, 2*zb+1, 2*za
			}
		}
	}
	var first, last func(ai int32) graph.EdgeID
	first = func(ai int32) graph.EdgeID {
		switch a := &arcs[ai]; {
		case a.orig >= 0:
			return a.orig
		case a.skip1 >= 0:
			return first(a.skip1)
		}
		return -1
	}
	last = func(ai int32) graph.EdgeID {
		switch a := &arcs[ai]; {
		case a.orig >= 0:
			return a.orig
		case a.skip2 >= 0:
			return last(a.skip2)
		}
		return -1
	}
	w := make([]float64, 2*P)
	ends := make([]ch.ArcEnds, 2*P)
	for ai := range arcs {
		w[ai] = arcs[ai].w
		ends[ai] = ch.ArcEnds{First: first(int32(ai)), Last: last(int32(ai))}
	}
	return w, ends
}

// TestCustomizeEndsMatchUnpacking pins the arc ends the triangle pass
// resolves in place against the reference that records decompositions
// and resolves them recursively: read back from the builder's slot
// columns in arc order, every arc's weight bits and both boundary edges
// agree (every arc a perfect customization keeps, every arc of a basic
// one), on the three study cities (seed 2022, flow order) under the
// base, a traffic and a perturbed metric with 10 % closures, and on two
// random networks under the base and the perturbed closures.
func TestCustomizeEndsMatchUnpacking(t *testing.T) {
	nets := studyNetworks(t)
	for _, seed := range []int64{41, 42} {
		g := randomCity(seed, 200)
		nets = append(nets, network{fmt.Sprintf("random %d", seed), g, Preprocess(g), map[string][]float64{
			"base":     g.BaseWeights(),
			"closures": perturbedWeights(g, seed, 0.10),
		}})
	}
	for _, net := range nets {
		for name, w := range net.metrics {
			wantW, wantE := refColumns(net.pre, w)
			for _, perfect := range []bool{false, true} {
				tb := net.pre.CustomizeWith(w, Config{Perfect: perfect})
				if ai := columnDiff(tb, perfect, wantW, wantE); ai >= 0 {
					t.Fatalf("%s/%s perfect=%v: %d arcs differ from the reference's %d at arc %d", net.name, name, perfect, tb.NumArcs(), len(wantW), ai)
				}
			}
		}
	}
}

// TestCustomizeAllocatesColumnsOnly is the allocation guard of a publish:
// one warm customization of Melbourne (flow order) allocates only what
// its builder keeps. A basic one allocates at most 20 bytes per arc — the
// slot-order weight and end columns (16 bytes per arc), with no
// arc-space copy and no per-arc record beside them. A perfect one
// allocates at most 13 bytes per arc: the columns of the pairs it keeps
// plus their private CSR, each array sized once.
func TestCustomizeAllocatesColumnsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := melbourneGraph(t)
	pre := PreprocessWith(g, OrderConfig{Kind: OrderFlow})
	w := g.BaseWeights()
	arcs := 2 * pre.NumPairs()
	for _, c := range []struct {
		cfg       Config
		perArcMax uint64
	}{{Config{}, 20}, {Config{Perfect: true}, 13}} {
		budget := c.perArcMax * uint64(arcs)
		pre.CustomizeWith(w, c.cfg) // warm the scratch pool
		// The least of three runs: a collection between two runs may
		// drain the scratch pool, and the rebuild is not the
		// customization's cost.
		got := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for run := 0; run < 3; run++ {
			runtime.ReadMemStats(&before)
			tb := pre.CustomizeWith(w, c.cfg)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tb)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("perfect=%v, %d arcs: %d B allocated (%.1f B/arc), budget %d B", c.cfg.Perfect, arcs, got, float64(got)/float64(arcs), budget)
		if got > budget {
			t.Fatalf("perfect=%v: customize allocates %d B, budget %d B (%d B per arc)", c.cfg.Perfect, got, budget, c.perArcMax)
		}
	}
}

// TestPreprocessSharedBounded pins the preprocessing memo's contract:
// repeated customizations of one graph share a single Preprocessed (the
// expensive contraction is paid once), and the memo holds at most
// sharedPreCap graphs — a planner churning through many graphs cannot
// pin unbounded triangle lists in memory.
func TestPreprocessSharedBounded(t *testing.T) {
	g := gridCity(8, 8)
	p1 := PreprocessShared(g)
	if p2 := PreprocessShared(g); p2 != p1 {
		t.Fatalf("PreprocessShared re-preprocessed a cached graph")
	}
	for i := 0; i < sharedPreCap+2; i++ {
		PreprocessShared(randomCity(int64(400+i), 60))
	}
	sharedMu.Lock()
	n := len(sharedPre)
	ord := len(sharedOrder)
	sharedMu.Unlock()
	if n > sharedPreCap || ord != n {
		t.Fatalf("memo holds %d entries (order list %d), cap %d", n, ord, sharedPreCap)
	}
}
