package ch

import (
	"math"
	"sync"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sp"
)

// This file implements restricted PHAST (RPHAST, Delling et al., "Faster
// batched shortest paths in road networks"): the TreeBuilder's downward
// sweep limited to the part of the hierarchy that can influence a given
// target node set. A full PHAST build relaxes every downward arc once;
// for the short queries the choice-routing planners prune elliptically,
// almost all of that work computes distances nobody reads. RPHAST splits
// the work in two:
//
//   - a *selection* phase (Select) that, once per target set, extracts the
//     restricted downward sub-CSR — the upward closure of the targets in
//     the pull DAG, in sweep order — and
//   - a *restricted build* (BuildTreeRestrictedInto) that runs the usual
//     upward search but sweeps only the selected positions.
//
// The produced trees equal full PHAST trees exactly on every selected
// node (same distances, same parent edges) and report every other node
// unreached, which is precisely the contract of an elliptically pruned
// tree (sp.BuildPrunedTree): as long as the target set covers the query's
// ellipse, the plateau join yields the same choice routes. Basic and
// perfect customizations share this one implementation: the TreeBuilder
// is compiled from the ch.Hierarchy seam.

// Selection is the reusable restricted-sweep state for one target set. It
// is immutable after Select returns and safe for concurrent restricted
// builds from any root (the RPHAST amortization: one selection serves
// every source sweep of a batch over the same target set). It is
// valid only for the TreeBuilder that produced it; using it with another
// builder — e.g. keeping a selection across a weight customization, whose
// arcs it no longer matches — is a bug and panics rather than degrading
// silently.
type Selection struct {
	tb      *TreeBuilder
	targets int // distinct target nodes requested
	fwd     restrictedCSR
	bwd     restrictedCSR
}

// restrictedCSR is the position-space sub-CSR of one direction's downward
// sweep: the selected positions in sweep order (ascending position =
// descending rank) and, per selected position, its pull arcs. Arc upper
// endpoints stay global positions, so the restricted sweep indexes the
// same rank-space scratch a full sweep uses — no per-selection remapping.
type restrictedCSR struct {
	nodes []int32
	off   []int32
	arcs  []downArc
	ends  []arcEnds
}

// selectScratch is the pooled mark array of the selection passes.
type selectScratch struct{ mark []bool }

// selectPool pools the position-space mark arrays of the selection
// passes, package-level for the reason given at sweepPool.
var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// Targets returns the number of distinct target nodes the selection was
// built for.
func (sel *Selection) Targets() int { return sel.targets }

// SweptNodes returns how many positions the restricted forward and
// backward sweeps process — the targets plus their upward closures, the
// measure of how much of the graph a restricted build still touches.
func (sel *Selection) SweptNodes() (fwd, bwd int) {
	return len(sel.fwd.nodes), len(sel.bwd.nodes)
}

// MemoryBytes reports the approximate retained size of the selection's
// backing arrays. Capacities (not lengths) are counted: they equal the
// lengths on a fresh selection, but a reused Selection keeps its larger
// backing.
func (sel *Selection) MemoryBytes() int {
	const (
		arcBytes  = int(unsafe.Sizeof(downArc{}))
		endBytes  = int(unsafe.Sizeof(arcEnds{}))
		int32Size = 4
	)
	csr := func(r *restrictedCSR) int {
		return int32Size*(cap(r.nodes)+cap(r.off)) + (arcBytes+endBytes)*cap(r.arcs)
	}
	return csr(&sel.fwd) + csr(&sel.bwd)
}

// Select builds the restricted sweep state for the given target set:
// distances and parent edges of every target are exact in trees built
// through the selection (from any root, in either direction); all other
// nodes may be reported unreached. Passing a previous Selection reuses
// its backing arrays, so re-selecting on a warm Selection allocates only
// on growth. The target slice is not retained; duplicate entries are
// deduplicated.
func (tb *TreeBuilder) Select(targets []graph.NodeID, reuse *Selection) *Selection {
	sel := reuse
	if sel == nil {
		sel = &Selection{}
	}
	sel.tb = tb
	top := tb.top
	sc := selectPool.Get().(*selectScratch)
	if len(sc.mark) < top.n {
		sc.mark = make([]bool, top.n)
	}
	sel.targets = top.markTargets(targets, sc.mark)
	sel.fwd.closeAndEmit(top.fwdOff, top.fwdUp, tb.fwdW, tb.fwdEnds, sc.mark)
	top.markTargets(targets, sc.mark)
	sel.bwd.closeAndEmit(top.bwdOff, top.bwdUp, tb.bwdW, tb.bwdEnds, sc.mark)
	selectPool.Put(sc)
	return sel
}

// markTargets marks the targets' positions in mark, returning how many
// were newly marked. It runs once per direction (the emit pass clears
// mark).
func (t *Topology) markTargets(targets []graph.NodeID, mark []bool) int {
	distinct := 0
	for _, v := range targets {
		p := t.pos[v]
		if !mark[p] {
			mark[p] = true
			distinct++
		}
	}
	return distinct
}

// closeAndEmit computes one direction's restricted CSR from the marked
// target positions: close the marks upward along the pull arcs (an up
// endpoint has a smaller position, so one descending scan reaches a
// fixed point), then emit the marked positions and their pull lists in
// sweep order. +Inf arcs (bans, inert CCH pairs) can never win a pull,
// so they are dropped from both the closure and the copy — under heavy
// closures the restricted subgraph shrinks further. A position's mark is
// final when the descending scan reaches it, so the scan also counts the
// positions and arcs the emit keeps, and the four arrays are sized once,
// exactly: a fresh selection retains no growth slack and allocates no
// growth garbage. Leaves mark fully cleared.
func (r *restrictedCSR) closeAndEmit(off, up []int32, w []float64, ends []arcEnds, mark []bool) {
	n := len(off) - 1
	nodes, kept := 0, 0
	for p := n - 1; p >= 0; p-- {
		if !mark[p] {
			continue
		}
		nodes++
		lo, hi := off[p], off[p+1]
		for k := lo; k < hi; k++ {
			if !math.IsInf(w[k], 1) {
				mark[up[k]] = true
				kept++
			}
		}
	}
	r.nodes = sized(r.nodes, nodes)
	r.off = sized(r.off, nodes+1)
	r.arcs = sized(r.arcs, kept)
	r.ends = sized(r.ends, kept)
	r.off[0] = 0
	i, j := 0, int32(0)
	for p := 0; p < n; p++ {
		if !mark[p] {
			continue
		}
		mark[p] = false
		r.nodes[i] = int32(p)
		lo, hi := off[p], off[p+1]
		for k := lo; k < hi; k++ {
			if math.IsInf(w[k], 1) {
				continue
			}
			r.arcs[j] = downArc{up: up[k], w: w[k]}
			r.ends[j] = ends[k]
			j++
		}
		i++
		r.off[i] = j
	}
}

// sized returns s resliced to length n when its capacity allows (a
// reused Selection), else a fresh slice of exactly n elements.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// BuildTreeRestrictedInto is BuildTreeInto with the downward sweep
// limited to sel: the returned tree (aliasing ws's slot for dir, same
// rules as BuildTreeInto) carries exact distances and original-graph
// parent edges for every node of the selection's sweep set and reports
// everything else unreached — an elliptically-pruned-tree drop-in. The
// upward search is unrestricted (it already touches only the root's
// upward cone). After warm-up a restricted build allocates nothing.
func (tb *TreeBuilder) BuildTreeRestrictedInto(ws *sp.Workspace, root graph.NodeID, dir sp.Direction, sel *Selection) *sp.Tree {
	if sel.tb != tb {
		panic("ch: Selection used with a TreeBuilder it was not derived from (stale selection kept across a customization?)")
	}
	t, st := ws.TreeSlot(dir)
	n := tb.top.n
	dist, parent := st.DenseArrays(n)
	d := tb.dir(dir)
	r := &sel.fwd
	if dir == sp.Backward {
		r = &sel.bwd
	}

	sc := sweepPool.Get().(*sweepScratch)
	distR, parentR := sc.initFor(n, tb.top.pos[root])

	// Phase 1, the upward search — identical to the full build.
	upwardPass(distR, parentR, &d)

	// Phase 2, the restricted downward sweep: selected positions in
	// descending rank. Every pull's upper endpoint is in the selection
	// (the closure invariant) and precedes the puller in sweep order, so
	// its distance is final when read — exactly the full sweep's argument
	// on the sub-DAG.
	nodes := r.nodes
	for k := range nodes {
		i := nodes[k]
		di := distR[i]
		lo, hi := r.off[k], r.off[k+1]
		arcs := r.arcs[lo:hi]
		best := -1
		for j := range arcs {
			a := arcs[j]
			if cand := distR[a.up] + a.w; cand < di {
				di = cand
				best = j
			}
		}
		if best >= 0 {
			distR[i] = di
			parentR[i] = d.end(r.ends[lo+int32(best)])
		}
	}

	// Scatter only the selection; everything else — including nodes the
	// upward search touched, whose distances phase 2 never finalized — is
	// reported unreached, like outside an elliptic pruning budget.
	inf := math.Inf(1)
	for v := range dist {
		dist[v] = inf
		parent[v] = -1
	}
	order := tb.top.order
	for k := range nodes {
		i := nodes[k]
		v := order[i]
		dist[v] = distR[i]
		parent[v] = parentR[i]
	}
	sweepPool.Put(sc)
	// The root's distance is 0 by definition even when the caller's
	// target set (unusually) excludes it.
	dist[root] = 0
	parent[root] = -1
	t.Root, t.Dir = root, dir
	t.Dist, t.Parent = dist, parent
	return t
}
