package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/weights"
)

// sampleNodes draws count distinct node ids from g.
func sampleNodes(g *graph.Graph, count int, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.NodeID]bool, count)
	out := make([]graph.NodeID, 0, count)
	for len(out) < count {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// dijkstraMatrix computes the reference table: one full Dijkstra tree per
// source under w, read at every target.
func dijkstraMatrix(g *graph.Graph, w []float64, sources, targets []graph.NodeID) []float64 {
	ws := sp.GetWorkspace()
	defer ws.Release()
	out := make([]float64, len(sources)*len(targets))
	for i, s := range sources {
		tree := sp.BuildTreeInto(ws, g, w, s, sp.Forward)
		for j, t := range targets {
			out[i*len(targets)+j] = tree.Dist[t]
		}
	}
	return out
}

// matrixDistTol is the relative tolerance against the flat-Dijkstra
// reference, matching the ch package's exactness standard: hierarchy
// sweeps sum pre-added shortcut weights, so the association order differs
// from edge-by-edge Dijkstra in the last ulp. Within one backend,
// distances are compared bit-identically instead (requireTableBitEqual).
const matrixDistTol = 1e-9

func matrixDistEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= matrixDistTol*scale
}

// requireTableEqual asserts cell-by-cell agreement with the Dijkstra
// reference within the ch package's exactness tolerance (+Inf must match
// exactly — no spurious reachability either way).
func requireTableEqual(t *testing.T, tab *Table, ref []float64, label string) {
	t.Helper()
	if len(tab.Seconds) != len(ref) {
		t.Fatalf("%s: table has %d cells, reference %d", label, len(tab.Seconds), len(ref))
	}
	for i, got := range tab.Seconds {
		if !matrixDistEqual(got, ref[i]) {
			t.Fatalf("%s: cell %d (source %d → target %d) = %v, reference %v",
				label, i, tab.Sources[i/len(tab.Targets)], tab.Targets[i%len(tab.Targets)], got, ref[i])
		}
	}
}

// requireTableBitEqual asserts bit-identical cells — the right comparison
// between two computations through the same backend, where the shared
// selection must lose nothing at all versus independent per-pair queries.
func requireTableBitEqual(t *testing.T, tab *Table, ref []float64, label string) {
	t.Helper()
	if len(tab.Seconds) != len(ref) {
		t.Fatalf("%s: table has %d cells, reference %d", label, len(tab.Seconds), len(ref))
	}
	for i, got := range tab.Seconds {
		if math.Float64bits(got) != math.Float64bits(ref[i]) {
			t.Fatalf("%s: cell %d (source %d → target %d) = %v, reference %v",
				label, i, tab.Sources[i/len(tab.Targets)], tab.Targets[i%len(tab.Targets)], got, ref[i])
		}
	}
}

// TestMatrixExactness is the many-to-many correctness pin: on seeded
// tie-free networks under perturbed + banned snapshots, every backend ×
// hierarchy flavor must produce tables byte-identical to k² independent
// Dijkstra trees. This is the RPHAST exactness theorem applied to matrix
// rows — a shared selection covering the target set loses no distance at
// any requested target from any root.
func TestMatrixExactness(t *testing.T) {
	// The first name segment of a TreeCHAuto row is the sweep mode its
	// cutover pins and asserts: "ch" full sweeps (fraction 0),
	// "ch-restricted" restricted (fraction 1), "ch-auto" restricted at a
	// fraction below 1 that still lets 5 spread targets' cells select.
	type config struct {
		name       string
		backend    TreeBackend
		fraction   float64
		restricted bool
		hkind      HierarchyKind
		query      QueryEngine
	}
	// The CCH rows run under both point-to-point query engines. The
	// engine answers only Hierarchy.Dist, which no table reads, so the
	// tables must come out byte-identical either way.
	configs := []config{
		{name: "dijkstra", backend: TreeDijkstra},
		{name: "ch/cch", backend: TreeCHAuto},
		{name: "ch-restricted/cch", backend: TreeCHAuto, fraction: 1, restricted: true},
		{name: "ch-restricted/cch/bidij", backend: TreeCHAuto, fraction: 1, restricted: true, query: QueryBidij},
		{name: "ch-restricted/cch-perfect", backend: TreeCHAuto, fraction: 1, restricted: true, hkind: HierarchyCCHPerfect},
		{name: "ch-restricted/cch-perfect/bidij", backend: TreeCHAuto, fraction: 1, restricted: true, hkind: HierarchyCCHPerfect, query: QueryBidij},
		{name: "ch-auto/cch", backend: TreeCHAuto, fraction: 0.8, restricted: true},
	}
	for _, netSeed := range []int64{7, 19} {
		g := randomRoadNetwork(netSeed, 160)
		snap := closureSnapshot(g, netSeed+100)
		sources := sampleNodes(g, 6, netSeed+1)
		targets := sampleNodes(g, 5, netSeed+2)
		ref := dijkstraMatrix(g, snap.Weights(), sources, targets)
		tables := map[string][]float64{}
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("net%d/%s", netSeed, cfg.name), func(t *testing.T) {
				withAutoFraction(t, cfg.fraction)
				m := NewMatrixEngine(g, Options{
					Weights:     snap,
					TreeBackend: cfg.backend,
					Hierarchy:   cfg.hkind,
					Query:       cfg.query,
				}, NewEngine(2))
				// Two passes: the second runs on a warm selection cache, so
				// a hit must be just as exact as the miss that built it.
				var last *Table
				for pass := 0; pass < 2; pass++ {
					tab, err := m.Matrix(sources, targets)
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					if cfg.backend == TreeDijkstra {
						requireTableBitEqual(t, tab, ref, fmt.Sprintf("pass %d", pass))
					} else {
						requireTableEqual(t, tab, ref, fmt.Sprintf("pass %d", pass))
					}
					if tab.Version != snap.Version() {
						t.Fatalf("pass %d: table version %d, snapshot %d", pass, tab.Version, snap.Version())
					}
					if tab.Restricted != cfg.restricted {
						t.Fatalf("pass %d: table Restricted=%v, row promises %v", pass, tab.Restricted, cfg.restricted)
					}
					last = tab
				}
				// The k² point-to-point baseline (full tree pairs through the
				// same backend) must agree bit-for-bit: the shared selection
				// loses nothing versus independent per-pair queries.
				var pw Table
				if err := m.MatrixPairwise(&pw, sources, targets); err != nil {
					t.Fatal(err)
				}
				requireTableBitEqual(t, &pw, last.Seconds, "pairwise-vs-matrix")
				// Query engines must be invisible in the output: a bidij
				// row's table is compared bit-for-bit against its elimtree
				// sibling (which ran just before it in config order).
				tables[cfg.name] = append([]float64(nil), last.Seconds...)
				if sibling, ok := tables[strings.TrimSuffix(cfg.name, "/bidij")]; ok && cfg.query == QueryBidij {
					requireTableBitEqual(t, last, sibling, "bidij-vs-elimtree")
				}
			})
		}
	}
}

// TestOneToMany checks the single-source convenience and that its table
// is the corresponding matrix row.
func TestOneToMany(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(11, 140)
	targets := sampleNodes(g, 8, 3)
	src := sampleNodes(g, 1, 4)[0]
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, nil)
	tab, err := m.OneToMany(src, targets)
	if err != nil {
		t.Fatal(err)
	}
	ref := dijkstraMatrix(g, g.BaseWeights(), []graph.NodeID{src}, targets)
	requireTableEqual(t, tab, ref, "one-to-many")
	if len(tab.Sources) != 1 || tab.Sources[0] != src {
		t.Fatalf("table sources = %v, want [%d]", tab.Sources, src)
	}
	if !tab.Restricted || tab.SelectionTargets == 0 {
		t.Fatalf("one-to-many served Restricted=%v SelectionTargets=%d", tab.Restricted, tab.SelectionTargets)
	}
}

// TestMatrixSharesPlateausProvider checks NewMatrixEngineFor: the matrix
// engine serves the planner's exact weight version (shared provider, no
// second hierarchy) and its tables stay exact.
func TestMatrixSharesPlateausProvider(t *testing.T) {
	g := randomRoadNetwork(13, 140)
	store := weights.NewStore(g.BaseWeights())
	p := NewPlateaus(g, Options{Weights: store, TreeBackend: TreeCHAuto})
	m := NewMatrixEngineFor(p, nil)
	sources := sampleNodes(g, 4, 5)
	targets := sampleNodes(g, 4, 6)

	tab, err := m.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	requireTableEqual(t, tab, dijkstraMatrix(g, store.Latest().Weights(), sources, targets), "v1")

	// Publish, refresh synchronously (as the Router does), and the matrix
	// must serve the new version exactly.
	rng := rand.New(rand.NewSource(99))
	w := make([]float64, len(g.BaseWeights()))
	for i, base := range g.BaseWeights() {
		w[i] = base * (0.5 + rng.Float64())
	}
	snap := store.Publish(w)
	p.prov.refreshSync()
	tab2, err := m.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Version != snap.Version() {
		t.Fatalf("post-publish table version %d, want %d", tab2.Version, snap.Version())
	}
	requireTableEqual(t, tab2, dijkstraMatrix(g, w, sources, targets), "v2")
	if pv := p.WeightsVersion(); pv != m.WeightsVersion() {
		t.Fatalf("shared provider disagrees: planner %d, matrix %d", pv, m.WeightsVersion())
	}
}

// TestMatrixValidation checks the error paths: empty endpoint sets and
// out-of-range ids are rejected before any sweep runs.
func TestMatrixValidation(t *testing.T) {
	g := randomRoadNetwork(17, 60)
	m := NewMatrixEngine(g, Options{}, nil)
	n := graph.NodeID(g.NumNodes())
	cases := []struct {
		name             string
		sources, targets []graph.NodeID
	}{
		{"no-sources", nil, []graph.NodeID{0}},
		{"no-targets", []graph.NodeID{0}, nil},
		{"source-oob", []graph.NodeID{n}, []graph.NodeID{0}},
		{"target-oob", []graph.NodeID{0}, []graph.NodeID{-1}},
	}
	for _, c := range cases {
		if _, err := m.Matrix(c.sources, c.targets); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestMatrixWarmZeroAlloc pins the zero-allocation steady state: on a
// one-worker engine, a warm MatrixInto with a selection-cache hit runs
// rows inline off pooled scratch and must not allocate.
func TestMatrixWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	withAutoFraction(t, 1)
	g := randomRoadNetwork(23, 160)
	m := NewMatrixEngine(g, Options{TreeBackend: TreeCHAuto}, NewEngine(1))
	sources := sampleNodes(g, 4, 7)
	targets := sampleNodes(g, 4, 8)
	var tab Table
	if err := m.MatrixInto(&tab, sources, targets); err != nil {
		t.Fatal(err)
	}
	if !tab.Restricted {
		t.Fatalf("warm-up table not restricted; the zero-alloc claim is about restricted sweeps")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.MatrixInto(&tab, sources, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MatrixInto allocates %v times per call, want 0", allocs)
	}
	if !tab.SelectionHit {
		t.Fatalf("warm MatrixInto missed the selection cache")
	}
}

// TestMatrixPublishSoak hammers the matrix engine from several goroutines
// while a publisher races weight swaps, and checks every response is
// internally single-version: each table's cells must equal a Dijkstra
// recompute under exactly the weight vector of the version the table
// reports. A torn read (selection from one version, sweep from another,
// or rows under mixed snapshots) shows up as a cell that matches no
// single published vector.
func TestMatrixPublishSoak(t *testing.T) {
	g := randomRoadNetwork(31, 150)
	store := weights.NewStore(g.BaseWeights())

	// Record every published weight vector by version (the store only
	// exposes Latest, so the soak keeps its own history). Subscribe runs
	// under the publisher lock, before any query can observe the version.
	history := sync.Map{}
	history.Store(store.Latest().Version(), append([]float64(nil), store.Latest().Weights()...))
	store.Subscribe(func(s *weights.Snapshot) {
		history.Store(s.Version(), append([]float64(nil), s.Weights()...))
	})

	m := NewMatrixEngine(g, Options{Weights: store, TreeBackend: TreeCHAuto}, NewEngine(2))
	sources := sampleNodes(g, 3, 9)
	targets := sampleNodes(g, 3, 10)

	const publishes = 8
	const queriers = 3
	const queriesEach = 12

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < publishes; i++ {
			w := make([]float64, len(g.BaseWeights()))
			for j, base := range g.BaseWeights() {
				w[j] = base * (0.5 + rng.Float64())
			}
			store.Publish(w)
			m.prov.refreshSync()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, queriers*queriesEach)
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				tab, err := m.Matrix(sources, targets)
				if err != nil {
					errs <- err
					return
				}
				wRec, ok := history.Load(tab.Version)
				if !ok {
					errs <- fmt.Errorf("table reports unknown version %d", tab.Version)
					return
				}
				// Tolerance comparison (hierarchy sweeps vs flat Dijkstra
				// differ in the last ulp); a torn snapshot mixes ±50%
				// perturbations, orders of magnitude above it.
				ref := dijkstraMatrix(g, wRec.([]float64), tab.Sources, tab.Targets)
				for c, got := range tab.Seconds {
					if !matrixDistEqual(got, ref[c]) {
						errs <- fmt.Errorf("version %d: cell %d = %v, recompute %v (torn snapshot?)", tab.Version, c, got, ref[c])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
