package core

import (
	"flag"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
)

// TreeBackend selects how the tree-source planners (Plateaus, Commercial,
// Dissimilarity and Penalty) obtain the forward/backward shortest-path
// trees their plateau join, via-node scan or search potential consumes.
type TreeBackend uint8

const (
	// TreeDijkstra builds trees with two full Dijkstra searches: the
	// paper's description of Choice Routing, and the oracle every other
	// backend is tested against.
	TreeDijkstra TreeBackend = iota
	// TreeCHAuto builds trees out of a customizable contraction hierarchy
	// — the §II-B optimisation commercial engines apply. Every tree pair
	// is two full PHAST sweeps, bit-compatible drop-ins for Dijkstra trees,
	// so route sets are identical. The matrix engine on the same backend
	// additionally restricts its sweeps to a shared RPHAST selection of the
	// target set (see RestrictedAutoFraction).
	TreeCHAuto
)

// RestrictedAutoFraction is the TreeCHAuto matrix cutover: a table's
// sweeps are restricted to a shared selection of its targets while they
// number at most this fraction of the graph's nodes, and run in full
// otherwise.
const RestrictedAutoFraction = 0.25

// autoFraction is the cutover newProvider hands its CCH sources.
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
// TreeCHAuto backend — both customize into a ch.TreeBuilder, so every
// consumer downstream of preprocessing is identical.
type HierarchyKind uint8

const (
	// HierarchyCCH (the default) is the customizable flavor
	// (cch.Preprocessed.Customize):
	// metric-independent contraction on a nested-dissection order with no
	// witness pruning, customized by triangle relaxation — exact for any
	// published snapshot, including +Inf closures.
	HierarchyCCH HierarchyKind = iota
	// HierarchyCCHPerfect is HierarchyCCH with the perfect-customization
	// post-pass: each publish additionally proves which chordal pairs have
	// both arcs strictly dominated (or +Inf) under the snapshot's metric
	// and marks them inert, so queries and tree sweeps skip them
	// (dominated-pair pruning). Same routes, costlier customization,
	// cheaper everything after.
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

// QueryEngine names a point-to-point distance engine of the CCH
// hierarchy's Dist (ch.Hierarchy). It configures nothing: tree pairs
// and matrix rows come from PHAST/RPHAST sweeps, the providers ignore
// Options.Query, and package ch has one point-to-point engine, the
// elimination-tree chain walk, whichever value is set. It is kept only so
// the benchmark harness, which still names it, compiles.
type QueryEngine uint8

const (
	// QueryElimTree (the default) names the elimination-tree chain walk.
	QueryElimTree QueryEngine = iota
	// QueryBidij names the bidirectional upward Dijkstra, which package
	// ch no longer has; it selects the same engine as QueryElimTree.
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
	treesFlag := fs.String("trees", trees.String(), "tree backend of the choice-routing planners: dijkstra (full Dijkstra searches, the paper's description) or ch-auto (full CCH sweeps; matrix tables restrict theirs to the targets while those cover at most a quarter of the graph)")
	hierFlag := fs.String("hierarchy", HierarchyCCH.String(), "hierarchy flavor behind -trees ch-auto: cch (exact for every published snapshot, closures included) or cch-perfect (cch plus dominated-pair pruning on every publish)")
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
// planner's hierarchy backend: which hierarchy answers its queries (Kind
// is cch.Kind), how long the most recent (re)customization took, how many
// background customizations failed, the matrix selection cache's state,
// and what the serving version and the preprocessing behind it retain.
// Zero for planners not running on a hierarchy.
type HierarchyStatus struct {
	Kind          string
	LastCustomize time.Duration
	// CustomizeFailures counts background customizations that panicked;
	// each left the previous version serving.
	CustomizeFailures uint64
	// SelectionHits / SelectionMisses count, cumulatively across weight
	// versions, how many matrix tables reused a cached target selection vs
	// had to build one (a Select pass). SelectionBytes is what the serving
	// version's cached selections retain (ch.Selection.MemoryBytes).
	SelectionHits   uint64
	SelectionMisses uint64
	SelectionBytes  int
	// ViewBytes is what the serving version's tree builder retains of its
	// own (ch.TreeBuilder.MemoryBytes): its weight and arc-end columns
	// and, on cch-perfect, the private CSR it sweeps — not the order,
	// positions and elimination tree it shares with every customization
	// of the city, nor a basic view's shared CSR. PreprocessedBytes is
	// the city's preprocessing, that shared topology included once
	// (cch.Preprocessed.MemoryBytes).
	ViewBytes         int
	PreprocessedBytes int
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
	// BuildTree writes the complete tree rooted at root in direction dir
	// into ws's slot for dir — one half of a pair, which is how the
	// engine's request-scoped tree groups build them.
	BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree
}

// buildPair is BuildTrees on a source's single-tree builds: the backward
// tree is built only when t is reachable. It is generic so a value-type
// source is not boxed per call.
func buildPair[S TreeSource](src S, ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	fwd = src.BuildTree(ws, s, sp.Forward)
	if !fwd.Reached(t) {
		return fwd, nil, false
	}
	return fwd, src.BuildTree(ws, t, sp.Backward), true
}

// dijkstraTrees is the paper-baseline source: two full Dijkstra trees.
// (Per-version sources are constructed by provider.buildView, which owns
// the backend selection and each version's CCH customization.)
type dijkstraTrees struct {
	g       *graph.Graph
	weights []float64
}

func (d dijkstraTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	return buildPair(d, ws, s, t)
}

func (d dijkstraTrees) BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	return sp.BuildTreeInto(ws, d.g, d.weights, root, dir)
}

// selectionStats is the concurrency-safe observability shared by every
// weight version of one provider's matrix selections (plain atomics).
type selectionStats struct {
	// Cumulative selection-cache counters (never reset on weight swaps, so
	// serving dashboards see monotone rates).
	selHits   atomic.Uint64
	selMisses atomic.Uint64
}

// cchTrees is the TreeCHAuto source. Every tree pair is two full PHAST
// sweeps of one weight version's hierarchy, bit-compatible with the
// Dijkstra backend's trees, so route sets are identical. Its tree builder
// shares the sweep topology of the city's preprocessing with every other
// basic customization of it, which is what lets the engine sweep a
// request's public and traffic trees in one pass (ch.BuildTwinTreesInto).
//
// It also owns that version's matrix selections (RPHAST): selectTargets
// selects a matrix's distinct targets once with the tree builder
// (ch.Selection) and keeps the last selRecent results, keyed by those
// sorted target ids, so every source sweep of the table, and every later
// table over the same targets, shares one Select. A table with more than
// maxTargets distinct targets is swept in full instead. The source, and
// with it every cached selection, lives and dies with one weight
// version: the provider builds a fresh cchTrees per customization, and
// ch.Selection's own builder guard panics if a stale selection ever
// crossed over.
type cchTrees struct {
	g  *graph.Graph
	tb *ch.TreeBuilder
	// maxTargets is the matrix cutover: a table with more distinct
	// targets runs full sweeps instead of building a selection.
	maxTargets int
	stats      *selectionStats
	cache      selectionCache
}

// selBufPool pools the per-table signature buffer of the selection-cache
// path, keeping the warm lookup allocation-free. It is package-level: a
// pool inside cchTrees would, through the runtime's registry of pools,
// keep a superseded version's source and its cached selections reachable
// until two garbage collections have passed.
var selBufPool = sync.Pool{New: func() any { return new(selBuf) }}

// selBuf is the pooled per-table scratch of the selection-cache path.
type selBuf struct{ sig []graph.NodeID }

func newCCHTrees(g *graph.Graph, tb *ch.TreeBuilder, maxTargets int, stats *selectionStats) *cchTrees {
	return &cchTrees{
		g:          g,
		tb:         tb,
		maxTargets: maxTargets,
		stats:      stats,
	}
}

func (r *cchTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	return buildPair(r, ws, s, t)
}

func (r *cchTrees) BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	return r.tb.BuildTreeInto(ws, root, dir)
}

// selectTargets resolves the selection entry of an explicit target set:
// the signature is the set's sorted, distinct target ids, so one
// selection serves every source sweep of a matrix batch and every later
// batch over the same targets while the entry is among the last
// selRecent. On a miss it selects the targets and inserts the entry. hit
// reports whether the entry came out of the cache.
func (r *cchTrees) selectTargets(targets []graph.NodeID) (e *selEntry, hit bool) {
	sb := selBufPool.Get().(*selBuf)
	defer selBufPool.Put(sb)
	sig := append(sb.sig[:0], targets...)
	slices.Sort(sig)
	sig = slices.Compact(sig)
	sb.sig = sig
	if e = r.cache.lookup(sig); e != nil {
		r.stats.selHits.Add(1)
		hit = true
	} else {
		r.stats.selMisses.Add(1)
		e = &selEntry{sig: slices.Clone(sig)}
		if len(sig) > r.maxTargets {
			e.full = true
		} else {
			e.sel = r.tb.Select(sig, nil)
		}
		e = r.cache.insert(e)
	}
	return e, hit
}
