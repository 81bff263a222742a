package ch

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/sp"
)

// TreeBuilder computes complete one-to-all shortest-path trees from the
// hierarchy with the PHAST scheme (Delling et al., "PHAST: Hardware-
// accelerated shortest path trees"): instead of a heap-driven Dijkstra
// over the whole graph, a query is two near-linear array passes over the
// nodes in contraction order — an ascending pass that settles the upward
// search space of the root, and a descending pass that relaxes every
// downward arc once. Both passes are heap-free: arcs sorted by rank form
// a DAG, so processing nodes in rank order finalizes distances without
// any priority queue. This is the optimisation §II-B of the paper
// attributes to commercial choice-routing engines: the source and target
// trees the plateau join needs come out of the hierarchy's search spaces
// rather than from scratch.
//
// The produced trees are drop-in *sp.Tree values: distances are exact
// (banned +Inf edges stay unreachable walls) and parent pointers are
// *original-graph* edges — shortcut arcs are resolved to the original
// edge adjacent to each node via first/last-edge arrays computed at
// construction — so tree consumers (plateau join, path reconstruction)
// cannot tell them from Dijkstra-built trees.
//
// A TreeBuilder is immutable after construction and safe for concurrent
// use; per-query state lives in the caller's sp.Workspace plus a pooled
// rank-space scratch, so warm queries allocate nothing.
type TreeBuilder struct {
	n int
	// order lists all nodes in descending contraction rank; pos is the
	// inverse permutation. Both passes scan positions monotonically so
	// every arc is relaxed exactly once, after its upper endpoint's
	// distance is final.
	order []graph.NodeID
	pos   []int32
	// Two packed CSRs over the hierarchy's arcs, indexed by position.
	// fwdOff/fwdArcs holds, per node v, the arcs u→v with rank[u] >
	// rank[v]; bwdOff/bwdArcs the arcs v→w with rank[w] > rank[v]. Each
	// serves both directions: a Forward tree pushes along bwdArcs in
	// ascending rank (the upward search) and pulls along fwdArcs in
	// descending rank (the downward sweep); a Backward tree swaps the
	// two, which is exactly PHAST on the reverse graph. Arc endpoints are
	// stored as *positions*, so the hot loops touch sequential CSR memory
	// plus a rank-space distance array whose read side is the
	// already-processed, cache-warm region.
	fwdOff  []int32
	fwdArcs []downArc
	bwdOff  []int32
	bwdArcs []downArc
	// fwdEnds/bwdEnds give, aligned with the arc arrays, the original
	// edges at the two ends of each (possibly shortcut) arc: the parent
	// edge a tree stores when the arc wins a relaxation is the end
	// adjacent to the tree node — last for Forward trees, first for
	// Backward. They live apart from the hot records because they are
	// read only on improvement.
	fwdEnds []arcEnds
	bwdEnds []arcEnds
}

// downArc is one packed CSR record: the position of the arc's
// higher-ranked endpoint and the arc weight.
type downArc struct {
	up int32
	w  float64
}

// arcEnds resolves an arc to its boundary original edges.
type arcEnds struct {
	first, last graph.EdgeID
}

// sweepScratch is the rank-space view of one tree build.
type sweepScratch struct {
	dist   []float64
	parent []graph.EdgeID
}

// sweepPool pools the rank-space scratch of tree builds, so concurrent
// queries stay allocation-free after warm-up. It is package-level, shared
// by every builder (each build sizes its scratch to its graph): a pool
// registers with the runtime, which would keep a per-builder pool — and
// with it the builder of a superseded weight version — reachable until
// two garbage collections have passed.
var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// initFor resets the scratch for a build over n positions rooted at
// position rootPos and returns the working views.
func (sc *sweepScratch) initFor(n int, rootPos int32) ([]float64, []graph.EdgeID) {
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.parent = make([]graph.EdgeID, n)
	}
	distR, parentR := sc.dist[:n], sc.parent[:n]
	inf := math.Inf(1)
	for i := range distR {
		distR[i] = inf
		parentR[i] = -1
	}
	distR[rootPos] = 0
	return distR, parentR
}

// upwardPass is phase 1 of a PHAST build, shared by the full and the
// restricted (RPHAST) sweeps: positions in ascending rank. The upward arc
// set is a DAG ordered by rank, so by the time a node is scanned every
// upward path into it has been relaxed — no heap needed. Nodes outside
// the root's upward cone sit at +Inf and are skipped.
func upwardPass(distR []float64, parentR []graph.EdgeID, upOff []int32, upArcs []downArc, upEnds []arcEnds, useLast bool) {
	for i := len(distR) - 1; i >= 0; i-- {
		d := distR[i]
		if math.IsInf(d, 1) {
			continue
		}
		lo, hi := upOff[i], upOff[i+1]
		arcs := upArcs[lo:hi]
		for k := range arcs {
			a := arcs[k]
			if cand := d + a.w; cand < distR[a.up] {
				distR[a.up] = cand
				e := upEnds[lo+int32(k)]
				if useLast {
					parentR[a.up] = e.last
				} else {
					parentR[a.up] = e.first
				}
			}
		}
	}
}

// NewTreeBuilder derives the one-shot PHAST ordering and packed
// adjacency from the hierarchy. The work is a few linear passes over the
// arc set, negligible next to Build itself.
func (h *Runtime) NewTreeBuilder() *TreeBuilder {
	n := h.g.NumNodes()
	tb := &TreeBuilder{n: n}

	// Resolve every arc's boundary original edges. Shortcut constituents
	// are always inserted before the shortcut referencing them, so one
	// forward pass suffices.
	m := len(h.arcs)
	firstEdge := make([]graph.EdgeID, m)
	lastEdge := make([]graph.EdgeID, m)
	for ai := range h.arcs {
		a := &h.arcs[ai]
		switch {
		case a.Orig >= 0:
			firstEdge[ai] = a.Orig
			lastEdge[ai] = a.Orig
		case a.Skip1 >= 0:
			firstEdge[ai] = firstEdge[a.Skip1]
			lastEdge[ai] = lastEdge[a.Skip2]
		default:
			// An inert arc: the pair exists in the topology but the current
			// metric gives it no realizing path (CCH only). It carries +Inf
			// and can never win a relaxation, so it resolves to no edge.
			firstEdge[ai] = -1
			lastEdge[ai] = -1
		}
	}

	// Nodes in descending contraction rank (rank is a permutation).
	tb.order = make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		tb.order[n-1-int(h.rank[v])] = graph.NodeID(v)
	}
	tb.pos = make([]int32, n)
	for i, v := range tb.order {
		tb.pos[v] = int32(i)
	}

	// Pack the position-space CSRs. upBwdAt(v) holds exactly the arcs
	// entering v from higher-ranked tails, upFwdAt(v) the arcs leaving v
	// toward higher-ranked heads. Inert arcs (strictly dominated under
	// the current metric, perfect-customized CCH only) are dropped here,
	// so both full PHAST sweeps and RPHAST selections skip them without
	// a per-arc check in the hot loops.
	tb.fwdOff = make([]int32, n+1)
	tb.bwdOff = make([]int32, n+1)
	for i, v := range tb.order {
		nf, nb := int32(0), int32(0)
		for _, ai := range h.upBwdAt(v) {
			if !h.arcInert(ai) {
				nf++
			}
		}
		for _, ai := range h.upFwdAt(v) {
			if !h.arcInert(ai) {
				nb++
			}
		}
		tb.fwdOff[i+1] = tb.fwdOff[i] + nf
		tb.bwdOff[i+1] = tb.bwdOff[i] + nb
	}
	tb.fwdArcs = make([]downArc, tb.fwdOff[n])
	tb.fwdEnds = make([]arcEnds, tb.fwdOff[n])
	tb.bwdArcs = make([]downArc, tb.bwdOff[n])
	tb.bwdEnds = make([]arcEnds, tb.bwdOff[n])
	for i, v := range tb.order {
		k := tb.fwdOff[i]
		for _, ai := range h.upBwdAt(v) {
			if h.arcInert(ai) {
				continue
			}
			tb.fwdArcs[k] = downArc{up: tb.pos[h.arcFrom[ai]], w: h.arcs[ai].Weight}
			tb.fwdEnds[k] = arcEnds{first: firstEdge[ai], last: lastEdge[ai]}
			k++
		}
		k = tb.bwdOff[i]
		for _, ai := range h.upFwdAt(v) {
			if h.arcInert(ai) {
				continue
			}
			tb.bwdArcs[k] = downArc{up: tb.pos[h.arcs[ai].To], w: h.arcs[ai].Weight}
			tb.bwdEnds[k] = arcEnds{first: firstEdge[ai], last: lastEdge[ai]}
			k++
		}
	}
	return tb
}

// arcInert reports whether the runtime's customization marked arc ai
// inert (strictly dominated; safe for queries and sweeps to skip).
func (h *Runtime) arcInert(ai int32) bool { return h.inert != nil && h.inert[ai] }

// NumSweepArcs returns how many arcs the full forward and backward
// downward sweeps relax — the per-tree work a customization's topology
// implies. Perfect CCH customization shrinks both by dropping inert arcs.
func (tb *TreeBuilder) NumSweepArcs() (fwd, bwd int) {
	return len(tb.fwdArcs), len(tb.bwdArcs)
}

// BuildTree computes the complete shortest-path tree rooted at root and
// returns an independently owned copy. Distances equal full-Dijkstra
// distances on the original graph under the hierarchy's weights.
func (tb *TreeBuilder) BuildTree(root graph.NodeID, dir sp.Direction) *sp.Tree {
	ws := sp.GetWorkspace()
	defer ws.Release()
	return tb.BuildTreeInto(ws, root, dir).Clone()
}

// BuildTreeInto is BuildTree on workspace memory: the returned Tree
// aliases ws's tree slot for dir and is valid until the next search using
// that slot. After warm-up (workspace and scratch pool) a build allocates
// nothing.
func (tb *TreeBuilder) BuildTreeInto(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	t, st := ws.TreeSlot(dir)
	n := tb.n
	dist, parent := st.DenseArrays(n)

	upOff, upArcs, upEnds := tb.bwdOff, tb.bwdArcs, tb.bwdEnds
	downOff, downArcs, downEnds := tb.fwdOff, tb.fwdArcs, tb.fwdEnds
	if dir == sp.Backward {
		upOff, upArcs, upEnds = tb.fwdOff, tb.fwdArcs, tb.fwdEnds
		downOff, downArcs, downEnds = tb.bwdOff, tb.bwdArcs, tb.bwdEnds
	}
	useLast := dir == sp.Forward

	sc := sweepPool.Get().(*sweepScratch)
	distR, parentR := sc.initFor(n, tb.pos[root])

	// Phase 1, the upward search.
	upwardPass(distR, parentR, upOff, upArcs, upEnds, useLast)

	// Phase 2, the downward sweep: positions in descending rank, one pull
	// min-fold per node. Every downward arc's upper endpoint is final when
	// its lower endpoint is scanned; +Inf distances propagate harmlessly
	// (Inf + w never beats a finite candidate, and Inf-only nodes stay
	// unreachable).
	for i := 0; i < n; i++ {
		d := distR[i]
		lo, hi := downOff[i], downOff[i+1]
		arcs := downArcs[lo:hi]
		best := -1
		for k := range arcs {
			a := arcs[k]
			if cand := distR[a.up] + a.w; cand < d {
				d = cand
				best = k
			}
		}
		if best >= 0 {
			distR[i] = d
			e := downEnds[lo+int32(best)]
			if useLast {
				parentR[i] = e.last
			} else {
				parentR[i] = e.first
			}
		}
	}

	// Scatter the rank-space result into the node-indexed workspace
	// arrays the Tree exposes.
	for i, v := range tb.order {
		dist[v] = distR[i]
		parent[v] = parentR[i]
	}
	sweepPool.Put(sc)
	t.Root, t.Dir = root, dir
	t.Dist, t.Parent = dist, parent
	return t
}
