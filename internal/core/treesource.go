package core

import (
	"flag"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sp"
	"repro/internal/spatial"
	"repro/internal/weights"
)

// TreeBackend selects how the tree-source planners (Plateaus, Commercial,
// PrunedPlateaus and Dissimilarity) obtain the forward/backward
// shortest-path trees their plateau join or via-node scan consumes.
type TreeBackend uint8

const (
	// TreeDijkstra builds trees with full Dijkstra searches, the paper's
	// baseline description of Choice Routing.
	TreeDijkstra TreeBackend = iota
	// TreeCHAuto builds trees out of a customizable contraction hierarchy
	// — the §II-B optimisation commercial engines apply. Per query the
	// elliptic target region (the nodes able to lie on a route within
	// UpperBound × the fastest time, by the admissible geometric bound) is
	// quantized to a spatial cell union; while that union holds at most
	// RestrictedAutoFraction of the graph's nodes, its vertices are
	// selected once (cached per cell signature, rebuilt — never reused —
	// across weight versions) and both trees come from RPHAST sweeps
	// restricted to the selection's upward closure. Larger ellipses (long
	// queries, where selection overhead eats the sweep savings) run full
	// PHAST sweeps. Trees are bit-compatible drop-ins for Dijkstra trees on
	// every node a route can use, so route sets are identical.
	TreeCHAuto
)

// RestrictedAutoFraction is the TreeCHAuto cutover: restricted sweeps are
// used while the elliptic target set stays at or below this fraction of
// the graph's nodes.
const RestrictedAutoFraction = 0.25

// autoFraction is the cutover newProvider hands its restricted sources.
// It is RestrictedAutoFraction everywhere except in tests, which move it
// to pin one sweep mode.
var autoFraction = RestrictedAutoFraction

// ParseTreeBackend maps the shared command-line flag spelling onto a
// TreeBackend: "dijkstra" or "ch-auto".
func ParseTreeBackend(s string) (TreeBackend, error) {
	switch s {
	case "dijkstra":
		return TreeDijkstra, nil
	case "ch-auto":
		return TreeCHAuto, nil
	}
	return 0, fmt.Errorf("core: invalid tree backend %q (want dijkstra or ch-auto)", s)
}

// String implements fmt.Stringer.
func (b TreeBackend) String() string {
	if b == TreeCHAuto {
		return "ch-auto"
	}
	return "dijkstra"
}

// HierarchyKind selects which customizable-hierarchy flavor backs the
// TreeCHAuto backend — both implement the ch.Hierarchy seam, so every
// consumer downstream of preprocessing is identical.
type HierarchyKind uint8

const (
	// HierarchyCCH (the default) is the customizable flavor (cch.Build):
	// metric-independent contraction on a nested-dissection order with no
	// witness pruning, customized by triangle relaxation — exact for any
	// published snapshot, including +Inf closures.
	HierarchyCCH HierarchyKind = iota
	// HierarchyCCHPerfect is HierarchyCCH with the perfect-customization
	// post-pass: each publish additionally proves which shortcut arcs are
	// strictly dominated under the snapshot's metric and marks them
	// inert, so queries and tree sweeps skip them. Same routes, costlier
	// customization, cheaper everything after.
	HierarchyCCHPerfect
)

// ParseHierarchyKind maps the shared command-line flag spelling ("cch" or
// "cch-perfect") onto a HierarchyKind.
func ParseHierarchyKind(s string) (HierarchyKind, error) {
	switch s {
	case "cch":
		return HierarchyCCH, nil
	case "cch-perfect":
		return HierarchyCCHPerfect, nil
	}
	return 0, fmt.Errorf("core: invalid hierarchy kind %q (want cch or cch-perfect)", s)
}

// String implements fmt.Stringer.
func (k HierarchyKind) String() string {
	if k == HierarchyCCHPerfect {
		return "cch-perfect"
	}
	return "cch"
}

// OrderKind selects the nested-dissection separator pipeline behind the
// CCH hierarchy — the cch package's type re-exported so command wiring
// needs only one spelling. OrderGeometric is the coordinate-bisection
// baseline; OrderFlow refines every split with an inertial-flow minimum
// vertex cut (smaller separators, fewer triangles, faster customization;
// slower one-off preprocessing). Ignored by the Dijkstra backend.
type OrderKind = cch.OrderKind

const (
	OrderGeometric = cch.OrderGeometric
	OrderFlow      = cch.OrderFlow
)

// ParseOrderKind maps the shared command-line flag spelling ("geometric"
// or "flow") onto an OrderKind.
func ParseOrderKind(s string) (OrderKind, error) { return cch.ParseOrderKind(s) }

// QueryEngine selects the point-to-point distance engine behind the CCH
// hierarchy's Dist/Path — the searches that seed every restricted
// selection's elliptic bound and the matrix baseline. Both engines return
// bit-identical distances.
type QueryEngine uint8

const (
	// QueryElimTree (the default) walks the two elimination-tree root
	// paths heap-free — no priority queue, no decrease-key, no stopping
	// criterion; ascent lengths are bounded by the tree height the order
	// pipeline produced.
	QueryElimTree QueryEngine = iota
	// QueryBidij keeps the classic bidirectional upward Dijkstra.
	QueryBidij
)

// ParseQueryEngine maps the shared command-line flag spelling ("elimtree"
// or "bidij") onto a QueryEngine.
func ParseQueryEngine(s string) (QueryEngine, error) {
	switch s {
	case "elimtree":
		return QueryElimTree, nil
	case "bidij":
		return QueryBidij, nil
	}
	return 0, fmt.Errorf("core: invalid query engine %q (want elimtree or bidij)", s)
}

// String implements fmt.Stringer.
func (q QueryEngine) String() string {
	if q == QueryBidij {
		return "bidij"
	}
	return "elimtree"
}

// PlannerFlags registers the planner flags the commands share on fs:
// -trees (dijkstra or ch-auto; trees is the command's default) and
// -hierarchy (cch or cch-perfect). The returned function, called after
// fs.Parse, builds the Options they select; the contraction order and
// the query engine are fixed at OrderFlow and QueryElimTree.
func PlannerFlags(fs *flag.FlagSet, trees TreeBackend) func() (Options, error) {
	treesFlag := fs.String("trees", trees.String(), "tree backend of the choice-routing planners: dijkstra (full Dijkstra searches, the paper's description) or ch-auto (CCH sweeps, restricted to the query's ellipse while it covers at most a quarter of the graph)")
	hierFlag := fs.String("hierarchy", HierarchyCCH.String(), "hierarchy flavor behind -trees ch-auto: cch (exact for every published snapshot, closures included) or cch-perfect (cch plus dominated-arc pruning on every publish)")
	return func() (Options, error) {
		backend, err := ParseTreeBackend(*treesFlag)
		if err != nil {
			return Options{}, err
		}
		hkind, err := ParseHierarchyKind(*hierFlag)
		if err != nil {
			return Options{}, err
		}
		return Options{TreeBackend: backend, Hierarchy: hkind, Order: OrderFlow, Query: QueryElimTree}, nil
	}
}

// HierarchyStatus is the serving-layer observability record of one
// planner's hierarchy backend: which flavor answers queries right now,
// how long the most recent (re)customization took, and the most recent
// query's selection size and tree-pair sweep time. Zero for planners not
// running on a hierarchy.
type HierarchyStatus struct {
	Kind string
	// Order is the contraction-order pipeline ("geometric" or "flow")
	// behind the hierarchy.
	Order         string
	LastCustomize time.Duration
	// LastSelection is the elliptic target-set size of the most recent
	// query; LastRestricted reports whether that query actually ran
	// restricted sweeps (false: its ellipse exceeded the auto cutover and
	// it ran full sweeps); LastSweep is the query's tree-pair build time,
	// selection included when one was built.
	LastSelection  int
	LastRestricted bool
	LastSweep      time.Duration
	// SelectionHits / SelectionMisses count, cumulatively across weight
	// versions, how many restricted queries reused a cached selection vs
	// had to build one (a Select pass); SelectionEvictions counts entries
	// dropped under the cache's byte budget. The hit rate is the headline
	// amortization metric of the selection cache.
	SelectionHits      uint64
	SelectionMisses    uint64
	SelectionEvictions uint64
	// LastUnionCells is the spatial cell-union size (number of grid cells)
	// of the most recent query's selection signature; LastHit reports
	// whether that query's selection came out of the cache.
	LastUnionCells int
	LastHit        bool
	// LastQueryEngine names the point-to-point engine of the serving
	// hierarchy ("elimtree" or "bidij"; empty off hierarchy backends).
	// The Elim* counters are cumulative over the planner's lifetime: each
	// customization inherits its predecessor's counters
	// (ch.Runtime.Customize), so they never drop across publishes.
	// ElimQueries counts
	// point-to-point ascent queries, ElimTruncated those abandoned early
	// by the incumbent bound, ElimAscentNodes total processed ascent
	// nodes (mean ascent = nodes/queries). LastAscent is the most recent
	// query's processed node count.
	LastQueryEngine string
	ElimQueries     uint64
	ElimTruncated   uint64
	ElimAscentNodes uint64
	LastAscent      int
}

// TreeSource abstracts the tree factory behind the choice-routing
// planners. Implementations must be safe for concurrent use: all per-call
// scratch state lives in the passed workspace.
type TreeSource interface {
	// BuildTrees writes a forward tree rooted at s and a backward tree
	// rooted at t into ws (aliasing its tree slots, like
	// sp.BuildTreeInto). ok is false when t is unreachable from s, in
	// which case the trees must not be used.
	BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool)
}

// dijkstraTrees is the paper-baseline source: two full Dijkstra trees.
// (Per-version sources are constructed by provider.buildView, which owns
// the backend selection and the CCH re-customization chain.)
type dijkstraTrees struct {
	g       *graph.Graph
	weights []float64
}

func (d dijkstraTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	fwd = sp.BuildTreeInto(ws, d.g, d.weights, s, sp.Forward)
	if !fwd.Reached(t) {
		return fwd, nil, false
	}
	bwd = sp.BuildTreeInto(ws, d.g, d.weights, t, sp.Backward)
	return fwd, bwd, true
}

// selectionStats is the concurrency-safe observability shared by every
// weight version of one planner's restricted source (plain atomics; the
// Last* fields are last writer wins under concurrent queries).
type selectionStats struct {
	lastSelection  atomic.Int64
	lastRestricted atomic.Bool
	lastSweepNS    atomic.Int64
	lastUnion      atomic.Int64
	lastHit        atomic.Bool
	// Cumulative selection-cache counters (never reset on weight swaps, so
	// serving dashboards see monotone rates).
	selHits      atomic.Uint64
	selMisses    atomic.Uint64
	selEvictions atomic.Uint64
	// selObs, when set, receives the size of every selection resolved
	// (hits and misses both — it distributes what queries *ran on*, not
	// what was built). Installed by Router.SetMetrics.
	selObs atomic.Pointer[metrics.Histogram]
}

// restrictedTrees is the TreeCHAuto source: the point-to-point hierarchy
// query yields the fastest time, the admissible geometric bound
// (geo.LowerBounder × the metric's minimum seconds-per-meter, the same
// pair prunedTrees searches with) bounds the elliptic region of nodes
// able to lie on a route within UpperBound × fastest, and both trees are
// built with downward sweeps restricted to a selection covering that
// region (ch.Selection). Distances on the ellipse equal the full sweep's,
// so the plateau join yields byte-identical route sets; outside it the
// trees are simply unreached, like an elliptically pruned Dijkstra tree.
// A region too large for selection to pay (more than maxTargets nodes)
// is swept in full instead.
//
// Selections are shared through a spatial quantization: the ellipse is
// covered by a union of grid cells (spatial.Index.EllipseCells), the
// union's vertices — a superset of the ellipse, so exactness is
// preserved — are selected with ch.SelectUnion, and the result is cached
// in a size-bounded multi-entry cache keyed by the cell signature. Every
// pair quantizing to the same cell union (alternating hot pairs, nearby
// endpoints) shares one Select; a covering cache probe additionally
// reuses any selection whose union contains the query's cells. The
// source, and with it every cached selection, lives and dies with one
// weight version: the provider builds a fresh restrictedTrees per
// customization, and ch.Selection's own builder guard panics if a stale
// selection ever crossed over.
type restrictedTrees struct {
	g          *graph.Graph
	hier       ch.Hierarchy
	tb         *ch.TreeBuilder
	lb         geo.LowerBounder
	scale      float64 // admissible seconds-per-meter lower bound; 0 disables selection
	upperBound float64
	// maxTargets is the auto cutover: a cell union holding more nodes runs
	// full sweeps instead of building a selection.
	maxTargets int
	stats      *selectionStats
	grid       *spatial.Index
	cache      *selectionCache
	// fullAll is the shared everything-marker used when no admissible
	// geometric bound exists (zero-length edges): every query sweeps the
	// whole graph, no per-query state.
	fullAll *selEntry
}

// selBufPool pools the per-query cell/target buffers of the
// selection-cache path, keeping the warm lookup allocation-free. It is
// package-level: a pool inside restrictedTrees would, through the
// runtime's registry of pools, keep a superseded version's source and its
// cached selections reachable until two garbage collections have passed.
var selBufPool = sync.Pool{New: func() any { return new(selBuf) }}

// selBuf is the pooled per-query scratch of the selection-cache path.
type selBuf struct {
	cells   []int32
	targets []graph.NodeID
}

func newRestrictedTrees(g *graph.Graph, hier ch.Hierarchy, weights []float64, upperBound float64, maxTargets int, stats *selectionStats, grid *spatial.Index) *restrictedTrees {
	r := &restrictedTrees{
		g:          g,
		hier:       hier,
		tb:         hier.NewTreeBuilder(),
		lb:         geo.NewLowerBounder(g.BBox()),
		scale:      sp.MinSecondsPerMeter(g, weights),
		upperBound: upperBound,
		maxTargets: maxTargets,
		stats:      stats,
		grid:       grid,
		cache:      newSelectionCache(selectionCacheBytes, stats),
		fullAll:    &selEntry{full: true, targets: g.NumNodes()},
	}
	return r
}

func (r *restrictedTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	// Under QueryElimTree hier.Dist is the heap-free elimination-tree
	// ascent, so a selection-cache hit pays no priority-queue search for
	// its elliptic bound.
	return r.buildTreesBounded(ws, s, t, r.hier.Dist(s, t))
}

// buildTreesBounded is BuildTrees with the fastest-time bound already
// computed — the batched entry point of MatrixPairwise, whose shared
// multi-source ascent derives one column of bounds at a time.
func (r *restrictedTrees) buildTreesBounded(ws *sp.Workspace, s, t graph.NodeID, fastest float64) (fwd, bwd *sp.Tree, ok bool) {
	if math.IsInf(fastest, 1) {
		return nil, nil, false
	}
	start := time.Now()
	cs := r.entryForPair(s, t, fastest)
	if cs.full {
		fwd = r.tb.BuildTreeInto(ws, s, sp.Forward)
		if !fwd.Reached(t) {
			return fwd, nil, false
		}
		bwd = r.tb.BuildTreeInto(ws, t, sp.Backward)
	} else {
		fwd = r.tb.BuildTreeRestrictedInto(ws, s, sp.Forward, cs.sel)
		if !fwd.Reached(t) {
			return fwd, nil, false
		}
		bwd = r.tb.BuildTreeRestrictedInto(ws, t, sp.Backward, cs.sel)
	}
	r.stats.lastSelection.Store(int64(cs.targets))
	r.stats.lastRestricted.Store(!cs.full)
	r.stats.lastSweepNS.Store(int64(time.Since(start)))
	return fwd, bwd, true
}

// entryForPair resolves the selection entry of one query pair: quantize
// the pair's elliptic region — every node v with LB(s,v) + LB(v,t) within
// (UpperBound × fastest) / scale; since scale·LB admissibly understates
// true travel times, any node on any route within the budget, plateau
// chains and tree paths included, lies inside it (the §II-B covering
// argument) — to its covering cell union and look that signature up in
// the cache, building the union's selection on a miss.
func (r *restrictedTrees) entryForPair(s, t graph.NodeID, fastest float64) *selEntry {
	if r.scale <= 0 {
		// No admissible geometric bound (zero-length edges exist): every
		// node may lie on a feasible route; sweep everything.
		return r.fullAll
	}
	budget := r.upperBound * fastest / r.scale
	sPt, tPt := r.g.Point(s), r.g.Point(t)
	sb := selBufPool.Get().(*selBuf)
	cells := r.grid.EllipseCells(sPt, tPt, budget, r.lb, sb.cells)
	// The endpoints' cells satisfy the bound analytically; keep them in
	// the signature even under adversarial float rounding.
	cells = insertCellSorted(cells, int32(r.grid.CellOf(sPt)))
	cells = insertCellSorted(cells, int32(r.grid.CellOf(tPt)))
	sb.cells = cells
	e, _ := r.entryForCells(sb, s, t)
	selBufPool.Put(sb)
	return e
}

// selectTargets resolves the selection entry covering an explicit target
// set — the many-to-many entry point: the signature is the union of the
// targets' cells, so one selection serves every source sweep of a matrix
// batch and every batch hitting the same cells. hit reports whether the
// entry came out of the cache.
func (r *restrictedTrees) selectTargets(targets []graph.NodeID) (e *selEntry, hit bool) {
	sb := selBufPool.Get().(*selBuf)
	cells := sb.cells[:0]
	for _, t := range targets {
		cells = insertCellSorted(cells, int32(r.grid.CellOf(r.g.Point(t))))
	}
	sb.cells = cells
	e, hit = r.entryForCells(sb, targets...)
	selBufPool.Put(sb)
	return e, hit
}

// entryForCells is the shared cache transaction: look up sb.cells'
// signature, and on a miss select the cell union's vertices (plus the
// must nodes, defensively — they are cell members already) and insert.
// Hit/miss/union observability is recorded here.
func (r *restrictedTrees) entryForCells(sb *selBuf, must ...graph.NodeID) (*selEntry, bool) {
	cells := sb.cells
	hash := sigHash(cells)
	if e := r.cache.lookup(cells, hash); e != nil {
		r.stats.selHits.Add(1)
		r.stats.lastHit.Store(true)
		r.stats.lastUnion.Store(int64(len(cells)))
		if h := r.stats.selObs.Load(); h != nil {
			h.Observe(float64(e.targets))
		}
		return e, true
	}
	r.stats.selMisses.Add(1)
	r.stats.lastHit.Store(false)
	r.stats.lastUnion.Store(int64(len(cells)))
	tgts := sb.targets[:0]
	for _, c := range cells {
		tgts = append(tgts, r.grid.CellNodes(int(c))...)
	}
	distinct := len(tgts)
	tgts = append(tgts, must...)
	sb.targets = tgts
	e := &selEntry{sig: append([]int32(nil), cells...), hash: hash}
	if distinct > r.maxTargets {
		e.full = true
		e.targets = distinct
		e.bytes = 4*len(e.sig) + selEntryOverhead
	} else {
		e.sel = r.tb.Select(tgts, nil)
		e.targets = e.sel.Targets()
		e.bytes = e.sel.MemoryBytes() + 4*len(e.sig) + selEntryOverhead
	}
	if h := r.stats.selObs.Load(); h != nil {
		h.Observe(float64(e.targets))
	}
	return r.cache.insert(e), false
}

// insertCellSorted inserts c into the ascending slice cells unless
// already present, in place (cells must have spare capacity or grow).
func insertCellSorted(cells []int32, c int32) []int32 {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if cells[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cells) && cells[lo] == c {
		return cells
	}
	cells = append(cells, 0)
	copy(cells[lo+1:], cells[lo:])
	cells[lo] = c
	return cells
}

// prunedTrees is the §II-B elliptic source: a bidirectional probe finds
// the fastest time, then both trees explore only nodes that can lie on a
// route within upperBound × fastest. Within that budget the trees'
// distances equal the full trees', so the choice routes are preserved.
type prunedTrees struct {
	g          *graph.Graph
	weights    []float64
	scale      float64 // admissible seconds-per-meter lower bound
	upperBound float64
}

// newPrunedTrees builds the elliptic source, deriving the admissible
// scale from the same weights the trees will search — the invariant the
// pruning bound depends on.
func newPrunedTrees(g *graph.Graph, weights []float64, upperBound float64) *prunedTrees {
	return &prunedTrees{
		g:          g,
		weights:    weights,
		scale:      sp.MinSecondsPerMeter(g, weights),
		upperBound: upperBound,
	}
}

// newPrunedTreesFrom is newPrunedTrees with cross-version scan sharing:
// when the snapshot carries a changed-edge delta relative to exactly the
// previous view's snapshot (closures, spot republishes), the admissible
// scale is updated from the previous one in O(|delta|) instead of
// rescanning every edge — the minimum-speed scan survives any publish
// that leaves the minima untouched. Bulk publishes (full traffic steps)
// carry no delta and fall back to the full scan.
func newPrunedTreesFrom(g *graph.Graph, snap *weights.Snapshot, upperBound float64, prev *prunedTrees, prevSnap *weights.Snapshot) *prunedTrees {
	w := snap.Weights()
	if prev != nil && prevSnap != nil {
		if since, changed, ok := snap.Delta(); ok && since == prevSnap.Version() {
			if scale, ok := rescaleFromDelta(g, prevSnap.Weights(), w, changed, prev.scale); ok {
				return &prunedTrees{g: g, weights: w, scale: scale, upperBound: upperBound}
			}
		}
	}
	return newPrunedTrees(g, w, upperBound)
}

// rescaleFromDelta derives the new minimum seconds-per-meter from the
// previous one given that only the changed edges differ. It is sound
// exactly when the previous minimum was achieved on an *unchanged* edge:
// then the old scale is still attained and only the changed edges can
// lower it. If any changed edge sat at the old minimum (it may have been
// the sole argmin, and raising it would raise the true minimum), ok is
// false and the caller must rescan.
func rescaleFromDelta(g *graph.Graph, prevW, w []float64, changed []graph.EdgeID, prevScale float64) (float64, bool) {
	scale := prevScale
	for _, e := range changed {
		ed := g.Edge(e)
		if ed.LengthM <= 0 {
			continue
		}
		if prevW[e]/ed.LengthM <= prevScale {
			return 0, false
		}
		if r := w[e] / ed.LengthM; r < scale {
			scale = r
		}
	}
	return scale, true
}

func (p *prunedTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	_, fastest := sp.BidirectionalShortestPathInto(ws, p.g, p.weights, s, t)
	if math.IsInf(fastest, 1) {
		return nil, nil, false
	}
	maxCost := p.upperBound * fastest
	fwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, s, sp.Forward, t, maxCost, p.scale)
	bwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, t, sp.Backward, s, maxCost, p.scale)
	if !fwd.Reached(t) {
		return fwd, bwd, false
	}
	return fwd, bwd, true
}
