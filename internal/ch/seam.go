// Package ch is the query half of a customizable contraction hierarchy
// (package repro/internal/cch builds and customizes the other half). §II-B
// of the paper discusses how plateau-based alternative routing must stay
// compatible with routing-engine optimisations ("many routing engines
// compute only a subset of the source or destination tree"); this package
// answers queries on a customized hierarchy: PHAST one-to-all trees for
// the plateau join, RPHAST distance rows for the distance tables, and exact
// point-to-point distances (elimination-tree ascents). A route is read off
// a tree: every tree parent is an original road edge, because each arc
// carries the boundary original edges its customization resolved.
//
// The sweeps are split by what a weight version changes. The Topology —
// node order, elimination tree and the position-space CSRs — depends
// only on the preprocessing, is built once with its metric-free Runtime,
// and is shared by every basic customization; a TreeBuilder holds one
// version's columns over it (arc weights and arc ends, gathered from the
// customization's arc-space columns into slot order). Two builders of
// one topology sweep their trees from one root in one pass
// (BuildTwinTreesInto), which is how a request's public and traffic trees
// are built.
package ch

import "repro/internal/graph"

// Hierarchy is the seam between the hierarchy and its *consumers*: the
// PHAST tree builder and the point-to-point distance query consume this
// interface, never the contraction that produced it. The one producer is
// cch: it contracts metric-independently on a nested-dissection order
// (the customizable-CH scheme of Dibbelt et al.), and each customization
// runs a triangle relaxation that is exact for *any* weight vector,
// including +Inf closures. A new weight vector is a new customization of
// the same preprocessing; a hierarchy never re-customizes itself.
//
// Implementations are immutable after construction and safe for
// concurrent queries.
type Hierarchy interface {
	// Dist returns the exact shortest travel time from s to t (+Inf if
	// unreachable).
	Dist(s, t graph.NodeID) float64
	// NewTreeBuilder derives the PHAST one-to-all tree builder.
	NewTreeBuilder() *TreeBuilder
	// NumArcs returns the arc count (original edges + shortcuts), a
	// preprocessing size measure.
	NumArcs() int
}

// ArcEnds resolves an arc to its boundary original edges: the first and
// last road edge of the path the arc stands for (both -1 when the metric
// gives the arc no realizing path). A tree records one of them as the
// parent edge when the arc wins a relaxation. Exported so package cch can
// write them during customization.
type ArcEnds struct {
	First, Last graph.EdgeID
}

// Runtime is the packed representation a customization compiles to: the
// contraction order, the upward forward/backward adjacency the query and
// the tree builder walk, the elimination tree the query ascends, and one
// metric's columns in arc space — weights, boundary original edges and
// the inert mask. It is immutable after construction and implements
// Hierarchy.
type Runtime struct {
	g    *graph.Graph
	rank []int32 // contraction order; higher rank = more important
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
	// fixed by the topology and shared by every customization.
	arcFrom []graph.NodeID
	arcTo   []graph.NodeID
	// arcW[i] and ends[i] are arc i's weight and boundary original edges
	// under this runtime's metric.
	arcW []float64
	ends []ArcEnds
	// inert, when non-nil, flags arcs a perfect customization proved
	// strictly dominated by an up-down path through other arcs: queries
	// and tree-builder packings skip them without losing exactness (the
	// dominating path always survives, because every arc on a shortest
	// up-down path has weight equal to the distance of its endpoints and
	// is therefore never strictly dominated itself). Indexed like arcW;
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
// afterwards. The result carries no metric: each customization attaches
// its columns with WithArcsInert.
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
// customization's own columns are not counted.
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
// adjacency, tails, heads, elimination tree and sweep topology, with one
// metric's arc-space columns attached: arcW[i] and ends[i] are arc i's
// weight and boundary original edges, and inert, when non-nil, flags the
// arcs a perfect customization proved strictly dominated. The columns
// must be index-compatible with the topology (same tails and heads) and
// are owned by the new runtime.
func (h *Runtime) WithArcsInert(arcW []float64, ends []ArcEnds, inert []bool) *Runtime {
	rt := *h
	rt.arcW, rt.ends, rt.inert = arcW, ends, inert
	return &rt
}

// Columns exposes the runtime's arc-space weights and boundary original
// edges for bit-identity tests. The slices alias internal storage:
// callers must not modify them, and they are valid only while they hold
// the runtime.
func (h *Runtime) Columns() ([]float64, []ArcEnds) { return h.arcW, h.ends }

// NumArcs returns the hierarchy's arc count (original edges + shortcuts),
// a preprocessing size measure.
func (h *Runtime) NumArcs() int { return len(h.arcTo) }
