// Package ch is the query half of a customizable contraction hierarchy
// (package repro/internal/cch builds and customizes the other half). §II-B
// of the paper discusses how plateau-based alternative routing must stay
// compatible with routing-engine optimisations ("many routing engines
// compute only a subset of the source or destination tree"); this package
// answers queries on a customized hierarchy: PHAST one-to-all trees for
// the plateau join, RPHAST distance rows for the distance tables, and exact
// point-to-point distances (two elimination-tree chain walks). A route is
// read off a tree: every tree parent is an original road edge, because
// each arc carries the boundary original edges its customization resolved.
//
// The sweeps are split by what a weight version changes. The Topology —
// node order, elimination tree and one position-space CSR of the chordal
// pairs, which both directions sweep — depends only on the
// preprocessing, is built once (NewTopology) and is shared by every basic
// customization; a TreeBuilder is one version's columns over it (per
// slot, the weights and ends of the pair's up and down arcs, packed by
// Topology.Pack). A perfect customization packs its columns over a
// private CSR without the pairs it proved inert. A weight version is
// exactly one TreeBuilder. Two builders of one topology sweep their trees
// from one root in one pass (BuildTwinTreesInto), which is how a
// request's public and traffic trees are built.
package ch

import (
	"math"

	"repro/internal/graph"
)

// Hierarchy is the interface of a customized hierarchy. Its one
// implementation is *TreeBuilder; the interface is kept only because the
// benchmark harness names it, and goes with the harness's replays.
//
// Implementations are immutable after construction and safe for
// concurrent queries.
type Hierarchy interface {
	// Dist returns the exact shortest travel time from s to t (+Inf if
	// unreachable).
	Dist(s, t graph.NodeID) float64
	// NewTreeBuilder returns the PHAST one-to-all tree builder.
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

// Dist returns the exact shortest travel time from s to t, or +Inf if t
// is unreachable. On a chordal hierarchy the upward search space of a
// node is its elimination-tree chain (Topology.upParent), so the query
// needs no heap and no stopping criterion: a distances-only walk up s's
// chain along the up arcs, one up t's chain along the down arcs (the
// upward search of the reverse graph), and the answer is the best sum of
// the two labels over s's chain. A node off t's chain holds no backward
// label (+Inf), so endpoints in different components fall out as +Inf.
// Each walk runs on a pooled rank-space array that holds +Inf between
// calls and resets only its own chain, so a warm query allocates
// nothing.
func (tb *TreeBuilder) Dist(s, t graph.NodeID) float64 {
	top := tb.top
	fs, bs := getRowScratch(top.n), getRowScratch(top.n)
	fwd, bwd := fs.dist, bs.dist
	ps, pt := top.pos[s], top.pos[t]
	top.chainWalk(fwd, tb.upW, ps)
	top.chainWalk(bwd, tb.downW, pt)
	best := math.Inf(1)
	for i := ps; i >= 0; i = top.upParent[i] {
		best = min(best, fwd[i]+bwd[i])
	}
	top.clearChain(fwd, ps)
	top.clearChain(bwd, pt)
	rowPool.Put(fs)
	rowPool.Put(bs)
	return best
}

// NewTreeBuilder returns tb itself: a customization is its tree builder.
func (tb *TreeBuilder) NewTreeBuilder() *TreeBuilder { return tb }

// NumArcs returns the hierarchy's arc count (original edges + shortcuts),
// a preprocessing size measure: two per chordal pair, the arcs a perfect
// customization dropped from its sweeps included.
func (tb *TreeBuilder) NumArcs() int { return 2 * tb.top.pairs }
