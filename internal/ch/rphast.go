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
// for a distance table, which reads only its targets, almost all of that
// work computes distances nobody reads. Its one serving consumer is the
// matrix engine behind /api/matrix (core.MatrixEngine); route requests
// sweep full trees. RPHAST splits the work in two:
//
//   - a *selection* phase (Select) that, once per target set, extracts the
//     restricted downward sub-CSR — the upward closure of the targets in
//     the pull DAG, in sweep order — and
//   - a per-source *restricted sweep* that runs the usual upward search
//     but sweeps only the selected positions: DistancesInto, the table
//     row kernel, which computes distances only and writes the targets'
//     straight into the row, or BuildTreeRestrictedInto, which builds a
//     whole sp.Tree with parent edges (the kernel's reference in tests
//     and the benchmark harness's sweep).
//
// A restricted tree equals the full PHAST tree exactly on every selected
// node (same distances, same parent edges) and reports every other node
// unreached. Basic and perfect customizations share this one
// implementation: a perfect customization's TreeBuilder sweeps a
// topology without its inert pairs.

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
	ends  []ArcEnds
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
		endBytes  = int(unsafe.Sizeof(ArcEnds{}))
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
	sel.fwd.closeAndEmit(top, tb.downW, tb.downEnds, sc.mark)
	top.markTargets(targets, sc.mark)
	sel.bwd.closeAndEmit(top, tb.upW, tb.upEnds, sc.mark)
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
// target positions, over t's CSR and the pull column w (downW for
// forward trees, upW for backward) with its ends: close the marks upward
// along the pull arcs (an up endpoint has a smaller position, so one
// descending scan reaches a fixed point), then emit the marked positions and their pull lists in
// sweep order. +Inf arcs (bans, inert CCH pairs) can never win a pull,
// so they are dropped from both the closure and the copy — under heavy
// closures the restricted subgraph shrinks further. A position's mark is
// final when the descending scan reaches it, so the scan also counts the
// positions and arcs the emit keeps, and the four arrays are sized once,
// exactly: a fresh selection retains no growth slack and allocates no
// growth garbage. Leaves mark fully cleared.
func (r *restrictedCSR) closeAndEmit(t *Topology, w []float64, ends []ArcEnds, mark []bool) {
	off, up := t.off, t.up
	n := t.n
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
// everything else unreached. The upward search is unrestricted (it
// already touches only the root's elimination-tree chain). It still pays
// three O(n) passes per tree (scratch reset, node-space reset, scatter);
// a table row that needs only distances uses DistancesInto. After warm-up
// a restricted build allocates nothing.
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
	rootPos := tb.top.pos[root]
	distR, parentR := sc.initFor(n, rootPos)

	// Phase 1, the upward search — identical to the full build.
	upwardPass(distR, parentR, &d, tb.top, rootPos)

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
	// reported unreached.
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

// rowScratch is the rank-space distance array of DistancesInto. Between
// uses every entry is +Inf: a row writes only its root's elimination-tree
// chain and the selected positions, and resets exactly those before the
// scratch goes back to the pool, so no row pays an O(n) pass.
type rowScratch struct{ dist []float64 }

// rowPool pools the row scratch, package-level for the reason given at
// sweepPool. Dist takes two of them, one per chain walk.
var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// getRowScratch takes a row scratch covering n positions from the pool.
func getRowScratch(n int) *rowScratch {
	sc := rowPool.Get().(*rowScratch)
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		for i := range sc.dist {
			sc.dist[i] = math.Inf(1)
		}
	}
	return sc
}

// DistancesInto writes the forward shortest travel times from root to
// targets into row (row[j] for targets[j], +Inf when unreachable): one
// restricted forward sweep over sel that computes distances only — no
// tree, no parent edges, no O(n) pass. Every target must be among the
// targets sel was selected for; duplicates are fine. The values are
// bit-identical to BuildTreeRestrictedInto's Dist at the same targets.
// After warm-up a row allocates nothing.
//
// The downward pull folds with the unsigned minimum of the candidates'
// IEEE-754 bit patterns, in two independent accumulators per node, which
// compiles to branch-free compare-and-move chains that overlap. That is
// exact because every label lies in [+0, +Inf] and is never NaN (a
// customization rejects negative and NaN weights), and on those values
// the order of the bit patterns is the order of the floats; a minimum
// does not depend on the fold order, so it equals the strict-comparison
// fold of BuildTreeRestrictedInto.
func (tb *TreeBuilder) DistancesInto(row []float64, root graph.NodeID, targets []graph.NodeID, sel *Selection) {
	if sel.tb != tb {
		panic("ch: Selection used with a TreeBuilder it was not derived from (stale selection kept across a customization?)")
	}
	top := tb.top
	sc := getRowScratch(top.n)
	dist := sc.dist
	rootPos := top.pos[root]

	// Phase 1, the upward search along the root's elimination-tree chain
	// (upwardPass without parent edges).
	top.chainWalk(dist, tb.upW, rootPos)

	// Phase 2, the restricted downward sweep: the selected positions in
	// sweep order, each pull an unsigned bit-pattern minimum over two
	// accumulators (even and odd arcs), the odd tail folded into the
	// first.
	r := &sel.fwd
	for k, i := range r.nodes {
		arcs := r.arcs[r.off[k]:r.off[k+1]]
		m0 := math.Float64bits(dist[i])
		m1 := m0
		j := 0
		for ; j+1 < len(arcs); j += 2 {
			a, b := arcs[j], arcs[j+1]
			m0 = min(m0, math.Float64bits(dist[a.up]+a.w))
			m1 = min(m1, math.Float64bits(dist[b.up]+b.w))
		}
		if j < len(arcs) {
			a := arcs[j]
			m0 = min(m0, math.Float64bits(dist[a.up]+a.w))
		}
		dist[i] = math.Float64frombits(min(m0, m1))
	}

	// Targets are selected, so their distances are final.
	row = row[:len(targets)]
	for j, t := range targets {
		row[j] = dist[top.pos[t]]
	}

	// Restore the all-+Inf invariant: the chain and the selection are
	// the only positions the row wrote.
	top.clearChain(dist, rootPos)
	for _, i := range r.nodes {
		dist[i] = math.Inf(1)
	}
	rowPool.Put(sc)
}
