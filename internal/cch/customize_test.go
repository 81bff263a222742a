package cch

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// TestPerfectCustomization checks the perfect post-pass end to end: the
// columns of every arc it keeps equal the basic ones (weights, arc ends —
// so routes cannot move), a nonzero arc fraction is proved inert and
// dropped from the tree builder's sweeps, distances stay exact, and full
// PHAST trees — distances and parents — are identical with and without
// the pruning.
func TestPerfectCustomization(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(33, 200)} {
		pre := Preprocess(g)
		w := perturbedWeights(g, int64(100+gi), 0.20)
		basic := pre.CustomizeWith(w, Config{})
		perfect := pre.CustomizeWith(w, Config{Perfect: true})

		bw, be, _ := basic.ArcColumns()
		if i := columnDiff(perfect, true, bw, be); i >= 0 {
			t.Fatalf("graph %d: perfect pass changed arc %d's columns", gi, i)
		}

		bf, bb := basic.NumSweepArcs()
		pf, pb := perfect.NumSweepArcs()
		if bf+bb != basic.NumArcs() {
			t.Fatalf("graph %d: basic sweeps relax %d+%d of %d arcs", gi, bf, bb, basic.NumArcs())
		}
		inert := bf + bb - pf - pb
		if inert <= 0 {
			t.Fatalf("graph %d: perfect customization proved nothing inert: sweeps %d+%d vs basic %d+%d", gi, pf, pb, bf, bb)
		}
		t.Logf("graph %d: %d/%d arcs inert, sweep arcs %d -> %d", gi, inert, perfect.NumArcs(), bf+bb, pf+pb)

		checkDistances(t, g, perfect, w, 40, int64(7*gi+1))

		// Inert arcs are strictly dominated, so they can never achieve a
		// sweep minimum — parents (not just distances) must match the
		// unpruned trees exactly, ties included.
		rng := rand.New(rand.NewSource(int64(gi)))
		for q := 0; q < 5; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
				bt := basic.BuildTree(root, dir)
				pt := perfect.BuildTree(root, dir)
				for v := range bt.Dist {
					if math.Float64bits(bt.Dist[v]) != math.Float64bits(pt.Dist[v]) || bt.Parent[v] != pt.Parent[v] {
						t.Fatalf("graph %d root %d dir %v: tree differs at %d: (%f, %d) vs (%f, %d)",
							gi, root, dir, v, bt.Dist[v], bt.Parent[v], pt.Dist[v], pt.Parent[v])
					}
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
	type network struct {
		name    string
		pre     *Preprocessed
		metrics map[string][]float64
	}
	var nets []network
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, network{prof.Name, PreprocessWith(g, OrderConfig{Kind: OrderFlow}), map[string][]float64{
			"base":     g.BaseWeights(),
			"traffic":  traffic.Apply(g, traffic.DefaultModel(2022)),
			"closures": perturbedWeights(g, 2022, 0.10),
		}})
	}
	for _, seed := range []int64{41, 42} {
		g := randomCity(seed, 200)
		nets = append(nets, network{fmt.Sprintf("random %d", seed), Preprocess(g), map[string][]float64{
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
// one warm basic customization of Melbourne (flow order) allocates at
// most 20 bytes per arc — the builder's slot-order weight and end
// columns (16 bytes per arc), with no arc-space copy and no per-arc
// record beside them.
func TestCustomizeAllocatesColumnsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := melbourneGraph(t)
	pre := PreprocessWith(g, OrderConfig{Kind: OrderFlow})
	w := g.BaseWeights()
	budget := uint64(20 * 2 * pre.NumPairs())
	pre.CustomizeWith(w, Config{}) // warm the scratch pool
	// The least of three runs: a collection between two runs may drain
	// the scratch pool, and the rebuild is not the customization's cost.
	got := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&before)
		tb := pre.CustomizeWith(w, Config{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tb)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d arcs: %d B allocated (%.1f B/arc), budget %d B", 2*pre.NumPairs(), got, float64(got)/float64(2*pre.NumPairs()), budget)
	if got > budget {
		t.Fatalf("customize allocates %d B, budget %d B (20 B per arc)", got, budget)
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
