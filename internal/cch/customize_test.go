package cch

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
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

// TestPerfectCustomization checks the perfect post-pass end to end: the
// basic arcs are untouched (weights, unpacking — so routes cannot move),
// a nonzero arc fraction is proved inert, the tree builder's sweeps
// actually shrink, distances stay exact, and full PHAST trees — distances
// and parents — are identical with and without the pruning.
func TestPerfectCustomization(t *testing.T) {
	for gi, g := range []*graph.Graph{gridCity(12, 12), randomCity(33, 200)} {
		pre := Preprocess(g)
		w := perturbedWeights(g, int64(100+gi), 0.20)
		basic := pre.CustomizeWith(w, Config{}).(*ch.Runtime)
		perfect := pre.CustomizeWith(w, Config{Perfect: true}).(*ch.Runtime)

		ba, pa := basic.Arcs(), perfect.Arcs()
		for i := range ba {
			if ba[i] != pa[i] {
				t.Fatalf("graph %d: perfect pass changed arc %d: %+v vs %+v", gi, i, ba[i], pa[i])
			}
		}
		if basic.InertCount() != 0 {
			t.Fatalf("graph %d: basic customization reports %d inert arcs", gi, basic.InertCount())
		}
		inert := perfect.InertCount()
		if inert == 0 {
			t.Fatalf("graph %d: perfect customization proved nothing inert", gi)
		}

		btb, ptb := basic.NewTreeBuilder(), perfect.NewTreeBuilder()
		bf, bb := btb.NumSweepArcs()
		pf, pb := ptb.NumSweepArcs()
		if pf+pb >= bf+bb {
			t.Fatalf("graph %d: perfect sweeps not smaller: %d+%d vs basic %d+%d (inert %d)", gi, pf, pb, bf, bb, inert)
		}
		t.Logf("graph %d: %d/%d arcs inert, sweep arcs %d -> %d", gi, inert, len(pa), bf+bb, pf+pb)

		checkDistances(t, g, perfect, w, 40, int64(7*gi+1))

		// Inert arcs are strictly dominated, so they can never achieve a
		// sweep minimum — parents (not just distances) must match the
		// unpruned trees exactly, ties included.
		rng := rand.New(rand.NewSource(int64(gi)))
		for q := 0; q < 5; q++ {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
				bt := btb.BuildTree(root, dir)
				pt := ptb.BuildTree(root, dir)
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
// Preprocessed concurrently must each get their own arc buffer (never a
// buffer another in-flight customization is still writing), and every
// produced hierarchy must answer exactly for its own metric. Run under
// -race this also proves the shared metric-free runtime and the pooled
// scratch are used safely.
func TestConcurrentCustomizeDistinctBuffers(t *testing.T) {
	g := randomCity(31, 150)
	pre := Preprocess(g)
	const workers = 8
	hs := make([]*ch.Runtime, workers)
	ws := make([][]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i] = perturbedWeights(g, int64(i), 0.05)
			hs[i] = pre.CustomizeWith(ws[i], Config{Perfect: i%2 == 0}).(*ch.Runtime)
		}(i)
	}
	wg.Wait()
	// All runtimes are still referenced, so no buffer may be shared.
	seen := map[*ch.Arc]int{}
	for i, h := range hs {
		p := &h.Arcs()[0]
		if j, dup := seen[p]; dup {
			t.Fatalf("customizations %d and %d share an arc buffer", j, i)
		}
		seen[p] = i
	}
	for i, h := range hs {
		checkDistances(t, g, h, ws[i], 15, int64(900+i))
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
