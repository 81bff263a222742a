// Package ch is the query half of a customizable contraction hierarchy
// (package repro/internal/cch builds and customizes the other half). §II-B
// of the paper discusses how plateau-based alternative routing must stay
// compatible with routing-engine optimisations ("many routing engines
// compute only a subset of the source or destination tree"); this package
// answers queries on a customized hierarchy: PHAST one-to-all trees for
// the plateau join, RPHAST distance rows for the distance tables, and exact
// point-to-point distances and paths (elimination-tree ascents) that
// unpack to original edge sequences.
//
// The sweeps are split by what a weight version changes. The Topology —
// node order, elimination tree and the position-space CSRs — depends
// only on the preprocessing, is built once with its metric-free Runtime,
// and is shared by every basic customization; a TreeBuilder holds one
// version's columns over it (arc weights and arc ends). Two builders of
// one topology sweep their trees from one root in one pass
// (BuildTwinTreesInto), which is how a request's public and traffic trees
// are built.
package ch

import "repro/internal/graph"

// Hierarchy is the seam between the hierarchy and its *consumers*: the
// PHAST tree builder and the point-to-point query consume this interface,
// never the contraction that produced it. The one producer is cch: it
// contracts metric-independently on a nested-dissection order (the
// customizable-CH scheme of Dibbelt et al.), and each customization runs
// a triangle relaxation that is exact for *any* weight vector, including
// +Inf closures. A new weight vector is a new customization of the same
// preprocessing; a hierarchy never re-customizes itself.
//
// Implementations are immutable after construction and safe for
// concurrent queries.
type Hierarchy interface {
	// Dist returns the exact shortest travel time from s to t (+Inf if
	// unreachable).
	Dist(s, t graph.NodeID) float64
	// Path returns the shortest s-t path as original graph edges plus its
	// travel time, unpacking shortcuts.
	Path(s, t graph.NodeID) ([]graph.EdgeID, float64)
	// NewTreeBuilder derives the PHAST one-to-all tree builder.
	NewTreeBuilder() *TreeBuilder
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
// (Orig/Skip1/Skip2), the upward forward/backward adjacency the query and
// the tree builder walk, and the elimination tree the query ascends. It
// is immutable after construction and implements Hierarchy.
type Runtime struct {
	g    *graph.Graph
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
	// arcFrom[i] and arcTo[i] are the tail and head of arc i. They are
	// fixed by the topology and shared by every customization; arcTo is
	// the packed copy of arcs[i].To the relax loops read.
	arcFrom []graph.NodeID
	arcTo   []graph.NodeID
	// arcW is the packed copy of arcs[i].Weight. A 32-byte Arc record
	// drags the unpacking table through the cache on every relaxation;
	// the packed views keep the hot loops at 12 bytes per arc.
	arcW []float64
	// inert, when non-nil, flags arcs a perfect customization proved
	// strictly dominated by an up-down path through other arcs: queries
	// and tree-builder packings skip them without losing exactness (the
	// dominating path always survives, because every arc on a shortest
	// up-down path has weight equal to the distance of its endpoints and
	// is therefore never strictly dominated itself). Indexed like arcs;
	// nil means no arc is inert.
	inert []bool
	// elim is the elimination tree of the topology, the root paths the
	// query ascends (elimquery.go) and, copied into position space by
	// newTopology, the chains the sweeps' upward phase walks.
	elim *ElimTree
	// top is the PHAST sweep topology of the upward adjacency, built once
	// by NewRuntime and shared by every customization's TreeBuilder
	// (phast.go).
	top *Topology
}

// NewRuntime assembles the metric-free half of a hierarchy runtime: rank
// is the contraction order (a permutation), from[i] and to[i] the tail
// and head of arc i, and elim the elimination tree of the topology. The
// caller vouches that upward neighborhoods are cliques, so elim's root
// paths carry every upward search space — package cch's chordal
// supergraph satisfies this by construction. The adjacency split is
// derived here, and so is the PHAST sweep topology every customization's
// TreeBuilder shares; the input slices are owned by the runtime
// afterwards. The result carries no arcs: each customization attaches its
// own with WithArcsInert.
func NewRuntime(g *graph.Graph, rank []int32, from, to []graph.NodeID, elim *ElimTree) *Runtime {
	n := g.NumNodes()
	h := &Runtime{
		g:        g,
		rank:     rank,
		upFwdOff: make([]int32, n+1),
		upBwdOff: make([]int32, n+1),
		arcFrom:  from,
		arcTo:    to,
		elim:     elim,
	}
	// Count, prefix-sum, fill.
	for ai, u := range from {
		w := to[ai]
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
	for ai, u := range from {
		w := to[ai]
		if rank[u] < rank[w] {
			h.upFwdArcs[h.upFwdOff[u]+fwdCur[u]] = int32(ai)
			fwdCur[u]++
		} else if rank[u] > rank[w] {
			h.upBwdArcs[h.upBwdOff[w]+bwdCur[w]] = int32(ai)
			bwdCur[w]++
		}
	}
	h.top = h.newTopology(nil, nil)
	return h
}

// MemoryBytes reports the retained size of the runtime's metric-free
// arrays — rank, upward adjacency, arc tails and heads, elimination tree
// and sweep topology — which every customization of it shares. A
// customization's own arcs are not counted.
func (h *Runtime) MemoryBytes() int {
	b := 4 * (len(h.rank) + len(h.upFwdOff) + len(h.upFwdArcs) + len(h.upBwdOff) + len(h.upBwdArcs) + len(h.arcFrom) + len(h.arcTo))
	if h.elim != nil {
		b += 4 * (len(h.elim.Parent) + len(h.elim.Depth))
	}
	return b + h.top.memoryBytes()
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

// WithArcsInert returns a runtime sharing this runtime's graph, order,
// adjacency, tails, heads, elimination tree and sweep topology, with the
// arc array, its
// packed weight view and the inert-arc mask replaced (all aligned; nil
// inert clears the mask) — the zero-re-indexing handoff from a
// customization pass to the fixed topology. The arcs must be
// index-compatible with the topology (same tails and heads), and arcW
// must hold arcs[i].Weight for every i.
func (h *Runtime) WithArcsInert(arcs []Arc, arcW []float64, inert []bool) *Runtime {
	rt := *h
	rt.arcs, rt.arcW, rt.inert = arcs, arcW, inert
	return &rt
}

// Arcs exposes the runtime's arc array for bit-identity tests. The slice
// aliases internal storage: callers must not modify it, and it is valid
// only while they hold the runtime.
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
