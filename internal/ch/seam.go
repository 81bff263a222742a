// Package ch is the query half of a customizable contraction hierarchy
// (package repro/internal/cch builds and customizes the other half). §II-B
// of the paper discusses how plateau-based alternative routing must stay
// compatible with routing-engine optimisations ("many routing engines
// compute only a subset of the source or destination tree"); this package
// answers queries on a customized hierarchy: exact point-to-point
// distances and paths (elimination-tree ascents or a bidirectional upward
// search) that unpack to original edge sequences, and PHAST/RPHAST
// one-to-all trees for the plateau join.
package ch

import "repro/internal/graph"

// Hierarchy is the seam between the hierarchy and its *consumers*. The
// point-to-point query, the PHAST tree builder and core's double-buffered
// weight-version provider consume this interface, never the contraction
// that produced it. The one producer is cch: it contracts
// metric-independently on a nested-dissection order (the customizable-CH
// scheme of Dibbelt et al.), and Customize runs a triangle relaxation that
// is exact for *any* weight vector, including +Inf closures.
//
// Implementations are immutable after construction and safe for
// concurrent queries.
type Hierarchy interface {
	// Graph returns the road network the hierarchy was built over.
	Graph() *graph.Graph
	// Kind names the producer ("cch") for logging.
	Kind() string
	// Rank returns the contraction order (higher rank = more important).
	// The returned slice aliases internal storage and must not be modified.
	Rank() []int32
	// Dist returns the exact shortest travel time from s to t (+Inf if
	// unreachable).
	Dist(s, t graph.NodeID) float64
	// Path returns the shortest s-t path as original graph edges plus its
	// travel time, unpacking shortcuts.
	Path(s, t graph.NodeID) ([]graph.EdgeID, float64)
	// NewTreeBuilder derives the PHAST one-to-all tree builder.
	NewTreeBuilder() *TreeBuilder
	// Customize returns a hierarchy over the same contraction order and
	// topology with arc weights rebuilt for the given vector by the
	// triangle relaxation — the cheap live-traffic path (no
	// re-contraction), exact for any metric. The receiver is not modified.
	Customize(weights []float64) Hierarchy
	// NumArcs returns the arc count (original edges + shortcuts), a
	// preprocessing size measure.
	NumArcs() int
	// NumShortcuts returns the number of arcs not backed by a single
	// original edge.
	NumShortcuts() int
}

// Arc is one directed edge of a hierarchy runtime: either an original road
// edge or a shortcut replacing two lower arcs. Exported so package cch can
// assemble runtimes; consumers never see it through the Hierarchy seam.
type Arc struct {
	To     graph.NodeID
	Weight float64
	// Orig is the original edge ID when the arc is (resolved by) a single
	// road edge, -1 otherwise.
	Orig graph.EdgeID
	// Skip1, Skip2 are the two constituent arcs (indices into the runtime
	// arc array, in path order) when the arc is a shortcut, -1 otherwise.
	// Constituents always precede the arc referencing them.
	Skip1, Skip2 int32
}

// Runtime is the packed representation a customization compiles to: the
// contraction order, the arc array with its unpacking table
// (Orig/Skip1/Skip2), and the upward forward/backward adjacency the
// queries and the tree builder walk. It is immutable after construction
// and implements Hierarchy.
type Runtime struct {
	g    *graph.Graph
	kind string
	rank []int32 // contraction order; higher rank = more important
	arcs []Arc
	// Packed upward adjacency, CSR over nodes:
	// upFwdArcs[upFwdOff[v]:upFwdOff[v+1]] lists arcs v->w with
	// rank[w] > rank[v]; upBwdArcs[upBwdOff[v]:upBwdOff[v+1]] lists arcs
	// u->v (stored at v) with rank[u] > rank[v]. CSR instead of per-node
	// slices keeps NewRuntime at a handful of allocations (it used to pay
	// two append-grown slices per node, ~2n allocations per city).
	upFwdOff  []int32
	upFwdArcs []int32
	upBwdOff  []int32
	upBwdArcs []int32
	// arcFrom[i] is the tail node of arcs[i].
	arcFrom []graph.NodeID
	// arcTo/arcW are packed copies of arcs[i].To and arcs[i].Weight — the
	// only fields the relax loops read. A 32-byte Arc record drags the
	// unpacking table through the cache on every relaxation; the packed
	// views keep the hot loops at 12 bytes per arc. arcTo is
	// topology-fixed and shared across customizations; arcW follows the
	// arc array (WithArcsInert adopts or re-derives it).
	arcTo []graph.NodeID
	arcW  []float64
	// inert, when non-nil, flags arcs a perfect customization proved
	// strictly dominated by an up-down path through other arcs: queries
	// and tree-builder packings skip them without losing exactness (the
	// dominating path always survives, because every arc on a shortest
	// up-down path has weight equal to the distance of its endpoints and
	// is therefore never strictly dominated itself). Indexed like arcs;
	// nil means no arc is inert.
	inert []bool
	// customize handles Customize calls: the triangle relaxation of the
	// preprocessing this runtime was customized from, installed by
	// WithCustomize.
	customize func([]float64) Hierarchy
	// elim, when non-nil, switches Dist/Path to the elimination-tree
	// engine (elimquery.go); nil keeps the bidirectional search (query.go).
	elim *ElimTree
}

// NewRuntime assembles a hierarchy runtime from externally built arcs:
// rank is the contraction order (a permutation) and from[i] the tail of
// arcs[i]. The adjacency split is derived here; the input slices are
// owned by the runtime afterwards. The result has no customize hook until
// WithCustomize installs one.
func NewRuntime(g *graph.Graph, kind string, rank []int32, from []graph.NodeID, arcs []Arc) *Runtime {
	n := g.NumNodes()
	h := &Runtime{
		g:        g,
		kind:     kind,
		rank:     rank,
		arcs:     arcs,
		upFwdOff: make([]int32, n+1),
		upBwdOff: make([]int32, n+1),
		arcFrom:  from,
		arcTo:    make([]graph.NodeID, len(arcs)),
		arcW:     make([]float64, len(arcs)),
	}
	for ai := range arcs {
		h.arcTo[ai] = arcs[ai].To
		h.arcW[ai] = arcs[ai].Weight
	}
	// Count, prefix-sum, fill.
	for ai := range arcs {
		u := from[ai]
		w := arcs[ai].To
		if rank[u] < rank[w] {
			h.upFwdOff[u+1]++
		} else if rank[u] > rank[w] {
			h.upBwdOff[w+1]++
		}
	}
	for v := 0; v < n; v++ {
		h.upFwdOff[v+1] += h.upFwdOff[v]
		h.upBwdOff[v+1] += h.upBwdOff[v]
	}
	h.upFwdArcs = make([]int32, h.upFwdOff[n])
	h.upBwdArcs = make([]int32, h.upBwdOff[n])
	fwdCur := make([]int32, n)
	bwdCur := make([]int32, n)
	for ai := range arcs {
		u := from[ai]
		w := arcs[ai].To
		if rank[u] < rank[w] {
			h.upFwdArcs[h.upFwdOff[u]+fwdCur[u]] = int32(ai)
			fwdCur[u]++
		} else if rank[u] > rank[w] {
			h.upBwdArcs[h.upBwdOff[w]+bwdCur[w]] = int32(ai)
			bwdCur[w]++
		}
	}
	return h
}

// upFwdAt returns the upward forward arc list of v (arc indices v->w with
// rank[w] > rank[v]).
func (h *Runtime) upFwdAt(v graph.NodeID) []int32 {
	return h.upFwdArcs[h.upFwdOff[v]:h.upFwdOff[v+1]]
}

// upBwdAt returns the upward backward arc list of v (arc indices u->v with
// rank[u] > rank[v]).
func (h *Runtime) upBwdAt(v graph.NodeID) []int32 {
	return h.upBwdArcs[h.upBwdOff[v]:h.upBwdOff[v+1]]
}

// WithoutArcs returns a runtime sharing this runtime's graph, order,
// adjacency, tails and hooks with no arc array and no weights — the
// metric-free template a preprocessing caches so later customizations
// reuse its adjacency through WithArcsInert instead of re-deriving it.
func (h *Runtime) WithoutArcs() *Runtime {
	rt := *h
	rt.arcs, rt.arcW, rt.inert = nil, nil, nil
	return &rt
}

// WithCustomize returns a runtime identical to this one except for the
// customize hook Customize calls — how package cch makes every runtime
// re-customize through the pass (basic or perfect) that produced it.
func (h *Runtime) WithCustomize(fn func([]float64) Hierarchy) *Runtime {
	rt := *h
	rt.customize = fn
	return &rt
}

// WithArcsInert returns a runtime sharing this runtime's graph, order,
// adjacency, tails and hooks, with the arc array, its packed weight view
// and the inert-arc mask replaced (all aligned; nil inert clears the mask)
// — the zero-re-indexing handoff from a customization pass to a frozen
// topology. The new arcs must be index-compatible with the old (same
// tails and heads). arcW must hold arcs[i].Weight for every i; passing
// the customization's own buffer keeps the swap allocation-free. A nil
// arcW is derived here instead.
func (h *Runtime) WithArcsInert(arcs []Arc, arcW []float64, inert []bool) *Runtime {
	rt := *h
	rt.arcs = arcs
	rt.inert = inert
	if arcW == nil {
		arcW = make([]float64, len(arcs))
		for ai := range arcs {
			arcW[ai] = arcs[ai].Weight
		}
	}
	rt.arcW = arcW
	return &rt
}

// WithElimTree returns a runtime answering Dist/Path with the
// elimination-tree engine over et (nil restores the bidirectional
// search). The caller vouches that et is the elimination tree of this
// runtime's topology and that upward neighborhoods are cliques — package
// cch's chordal supergraph satisfies this by construction.
func (h *Runtime) WithElimTree(et *ElimTree) *Runtime {
	rt := *h
	rt.elim = et
	return &rt
}

// Arcs exposes the runtime's arc array for bit-identity tests and
// topology reports. The slice aliases internal storage: callers must not
// modify it, and it is valid only while they hold the runtime.
func (h *Runtime) Arcs() []Arc { return h.arcs }

// InertCount returns how many arcs the runtime's customization marked
// inert (strictly dominated; skipped by queries and sweeps). Zero for
// basic customizations.
func (h *Runtime) InertCount() int {
	count := 0
	for _, in := range h.inert {
		if in {
			count++
		}
	}
	return count
}

// Graph implements Hierarchy.
func (h *Runtime) Graph() *graph.Graph { return h.g }

// Kind implements Hierarchy.
func (h *Runtime) Kind() string { return h.kind }

// Rank implements Hierarchy.
func (h *Runtime) Rank() []int32 { return h.rank }

// Customize implements Hierarchy by calling the hook WithCustomize
// installed.
func (h *Runtime) Customize(weights []float64) Hierarchy {
	return h.customize(weights)
}
