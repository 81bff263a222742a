package ch

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sp"
)

// Topology is the metric-free half of the PHAST sweeps: the node order,
// the elimination tree in position space and the two position-space CSRs
// every customization of one hierarchy sweeps. It is built once per
// preprocessing (NewRuntime) and shared by every TreeBuilder packed from
// that preprocessing's basic customizations, so a weight version pays
// only for its weight and arc-end columns. A perfect customization drops
// its inert arcs and packs a private Topology (sharing the order and the
// elimination tree). Immutable after construction.
type Topology struct {
	n int
	// order lists all nodes in descending contraction rank; pos is the
	// inverse permutation. Both passes scan positions monotonically so
	// every arc is relaxed exactly once, after its upper endpoint's
	// distance is final.
	order []graph.NodeID
	pos   []int32
	// upParent is the elimination tree over positions: the position of
	// each position's tree parent, -1 at roots. A node's upward arcs all
	// lead to its tree ancestors (upward neighborhoods are cliques), so
	// the upward phase of a sweep from root walks root's parent chain
	// instead of scanning all n positions (upwardPass).
	upParent []int32
	// Two CSRs over the hierarchy's arcs, indexed by position.
	// fwdOff/fwdUp holds, per node v, the arcs u→v with rank[u] > rank[v];
	// bwdOff/bwdUp the arcs v→w with rank[w] > rank[v]. Each serves both
	// directions: a Forward tree pushes along the bwd arcs in ascending
	// rank (the upward search) and pulls along the fwd arcs in descending
	// rank (the downward sweep); a Backward tree swaps the two, which is
	// exactly PHAST on the reverse graph. An entry is the position of the
	// arc's higher-ranked endpoint, so the hot loops touch sequential CSR
	// memory plus a rank-space distance array whose read side is the
	// already-processed, cache-warm region. On a CCH the two CSRs are
	// equal (every chordal pair has an arc each way) and share storage.
	fwdOff, bwdOff []int32
	fwdUp, bwdUp   []int32
	// fwdArc/bwdArc give the runtime arc index behind each CSR slot: what
	// a customization's columns are packed from.
	fwdArc, bwdArc []int32
}

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
// A TreeBuilder is one weight version's columns over a shared Topology:
// per CSR slot, the arc weight and the arc's boundary original edges.
// Builders of one preprocessing's basic customizations share their
// topology, which is what lets BuildTwinTreesInto sweep two versions in
// one pass.
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
	top *Topology
	// fwdW/bwdW are the arc weights aligned with the topology's fwd/bwd
	// CSR slots.
	fwdW, bwdW []float64
	// fwdEnds/bwdEnds give, aligned with the same slots, the original
	// edges at the two ends of each (possibly shortcut) arc: the parent
	// edge a tree stores when the arc wins a relaxation is the end
	// adjacent to the tree node — last for Forward trees, first for
	// Backward. They live apart from the weights because they are read
	// only on improvement.
	fwdEnds, bwdEnds []arcEnds
}

// downArc is one packed restricted-CSR record (rphast.go): the position
// of the arc's higher-ranked endpoint and the arc weight.
type downArc struct {
	up int32
	w  float64
}

// arcEnds resolves an arc to its boundary original edges.
type arcEnds struct {
	first, last graph.EdgeID
}

// sweepDir is one direction's view of a TreeBuilder: the CSR the upward
// search pushes along and the one the downward sweep pulls along, each
// with the builder's columns, plus which arc end a relaxation records.
type sweepDir struct {
	upOff, upUp     []int32
	upW             []float64
	upEnds          []arcEnds
	downOff, downUp []int32
	downW           []float64
	downEnds        []arcEnds
	useLast         bool
}

// dir resolves the CSRs and columns a tree in direction d sweeps.
func (tb *TreeBuilder) dir(d sp.Direction) sweepDir {
	t := tb.top
	if d == sp.Backward {
		return sweepDir{t.fwdOff, t.fwdUp, tb.fwdW, tb.fwdEnds, t.bwdOff, t.bwdUp, tb.bwdW, tb.bwdEnds, false}
	}
	return sweepDir{t.bwdOff, t.bwdUp, tb.bwdW, tb.bwdEnds, t.fwdOff, t.fwdUp, tb.fwdW, tb.fwdEnds, true}
}

// end returns the parent edge arc e records under this direction.
func (d *sweepDir) end(e arcEnds) graph.EdgeID {
	if d.useLast {
		return e.last
	}
	return e.first
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
// restricted (RPHAST) sweeps: the upward search from the root at position
// rootPos. On a CCH the root's upward search space lies on its
// elimination-tree root path (Dibbelt, Strasser & Wagner, "Customizable
// Contraction Hierarchies"), so the pass walks the root's upParent chain
// in ascending rank — tens to a few hundred positions — instead of
// scanning all n. A scan over every position would relax the same arcs in
// the same order (it skips the off-chain nodes, which stay at +Inf), so
// the trees are bit-identical to that scan's. Chain nodes the search does
// not reach sit at +Inf and are skipped.
func upwardPass(distR []float64, parentR []graph.EdgeID, d *sweepDir, upParent []int32, rootPos int32) {
	for i := rootPos; i >= 0; i = upParent[i] {
		di := distR[i]
		if math.IsInf(di, 1) {
			continue
		}
		lo, hi := d.upOff[i], d.upOff[i+1]
		ups, w := d.upUp[lo:hi], d.upW[lo:hi]
		w = w[:len(ups)]
		for k, u := range ups {
			if cand := di + w[k]; cand < distR[u] {
				distR[u] = cand
				parentR[u] = d.end(d.upEnds[lo+int32(k)])
			}
		}
	}
}

// newTopology packs the position-space CSRs of the runtime's upward
// adjacency. upBwdAt(v) holds exactly the arcs entering v from
// higher-ranked tails, upFwdAt(v) the arcs leaving v toward higher-ranked
// heads. Arcs flagged in drop (a perfect customization's inert arcs) are
// left out, so both full PHAST sweeps and RPHAST selections skip them
// without a per-arc check in the hot loops; such a topology reuses the
// node order and elimination tree of base, the runtime's shared
// topology. With drop nil and base nil it is the shared topology itself.
func (h *Runtime) newTopology(base *Topology, drop []bool) *Topology {
	n := h.g.NumNodes()
	t := &Topology{n: n}
	if base != nil {
		t.order, t.pos, t.upParent = base.order, base.pos, base.upParent
	} else {
		// Nodes in descending contraction rank (rank is a permutation).
		t.order = make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			t.order[n-1-int(h.rank[v])] = graph.NodeID(v)
		}
		t.pos = make([]int32, n)
		for i, v := range t.order {
			t.pos[v] = int32(i)
		}
		t.upParent = make([]int32, n)
		for i, v := range t.order {
			t.upParent[i] = -1
			if p := h.elim.Parent[v]; p != graph.InvalidNode {
				t.upParent[i] = t.pos[p]
			}
		}
	}
	keep := func(ai int32) bool { return drop == nil || !drop[ai] }
	t.fwdOff = make([]int32, n+1)
	t.bwdOff = make([]int32, n+1)
	for i, v := range t.order {
		nf, nb := int32(0), int32(0)
		for _, ai := range h.upBwdAt(v) {
			if keep(ai) {
				nf++
			}
		}
		for _, ai := range h.upFwdAt(v) {
			if keep(ai) {
				nb++
			}
		}
		t.fwdOff[i+1] = t.fwdOff[i] + nf
		t.bwdOff[i+1] = t.bwdOff[i] + nb
	}
	t.fwdUp = make([]int32, t.fwdOff[n])
	t.fwdArc = make([]int32, t.fwdOff[n])
	t.bwdUp = make([]int32, t.bwdOff[n])
	t.bwdArc = make([]int32, t.bwdOff[n])
	for i, v := range t.order {
		k := t.fwdOff[i]
		for _, ai := range h.upBwdAt(v) {
			if keep(ai) {
				t.fwdUp[k], t.fwdArc[k] = t.pos[h.arcFrom[ai]], ai
				k++
			}
		}
		k = t.bwdOff[i]
		for _, ai := range h.upFwdAt(v) {
			if keep(ai) {
				t.bwdUp[k], t.bwdArc[k] = t.pos[h.arcTo[ai]], ai
				k++
			}
		}
	}
	if slices.Equal(t.fwdOff, t.bwdOff) && slices.Equal(t.fwdUp, t.bwdUp) {
		t.bwdOff, t.bwdUp = t.fwdOff, t.fwdUp
	}
	return t
}

// memoryBytes reports the retained size of the topology's arrays, the
// CSRs the backward direction shares with the forward one counted once.
func (t *Topology) memoryBytes() int {
	b := 4 * (len(t.order) + len(t.pos) + len(t.upParent) + len(t.fwdOff) + len(t.fwdUp) + len(t.fwdArc) + len(t.bwdArc))
	if unsafe.SliceData(t.bwdOff) != unsafe.SliceData(t.fwdOff) {
		b += 4 * len(t.bwdOff)
	}
	if unsafe.SliceData(t.bwdUp) != unsafe.SliceData(t.fwdUp) {
		b += 4 * len(t.bwdUp)
	}
	return b
}

// NewTreeBuilder packs the customization's columns — per CSR slot of its
// topology, the arc weight and the boundary original edges — over the
// runtime's shared topology, or over a private one that drops the arcs a
// perfect customization marked inert. The work is a few linear passes
// over the arc set, negligible next to the customization that produced
// it.
func (h *Runtime) NewTreeBuilder() *TreeBuilder {
	top := h.top
	if h.inert != nil {
		top = h.newTopology(h.top, h.inert)
	}

	// Resolve every arc's boundary original edges. Shortcut constituents
	// are always inserted before the shortcut referencing them, so one
	// forward pass suffices.
	ends := make([]arcEnds, len(h.arcs))
	for ai := range h.arcs {
		a := &h.arcs[ai]
		switch {
		case a.Orig >= 0:
			ends[ai] = arcEnds{a.Orig, a.Orig}
		case a.Skip1 >= 0:
			ends[ai] = arcEnds{ends[a.Skip1].first, ends[a.Skip2].last}
		default:
			// An arc whose pair the current metric gives no realizing path
			// (CCH only). It carries +Inf and can never win a relaxation,
			// so it resolves to no edge.
			ends[ai] = arcEnds{-1, -1}
		}
	}
	column := func(arcIdx []int32) ([]float64, []arcEnds) {
		w := make([]float64, len(arcIdx))
		e := make([]arcEnds, len(arcIdx))
		for k, ai := range arcIdx {
			w[k], e[k] = h.arcs[ai].Weight, ends[ai]
		}
		return w, e
	}
	tb := &TreeBuilder{top: top}
	tb.fwdW, tb.fwdEnds = column(top.fwdArc)
	tb.bwdW, tb.bwdEnds = column(top.bwdArc)
	return tb
}

// Topology returns the sweep topology the builder's columns are aligned
// with. Builders of one preprocessing's basic customizations return the
// same pointer.
func (tb *TreeBuilder) Topology() *Topology { return tb.top }

// MemoryBytes reports the retained size of the builder's own columns:
// weights and arc ends, not the topology they index, which the builder
// usually shares (Runtime.MemoryBytes counts it).
func (tb *TreeBuilder) MemoryBytes() int {
	const endBytes = int(unsafe.Sizeof(arcEnds{}))
	return 8*(cap(tb.fwdW)+cap(tb.bwdW)) + endBytes*(cap(tb.fwdEnds)+cap(tb.bwdEnds))
}

// NumSweepArcs returns how many arcs the full forward and backward
// downward sweeps relax — the per-tree work a customization's topology
// implies. Perfect CCH customization shrinks both by dropping inert arcs.
func (tb *TreeBuilder) NumSweepArcs() (fwd, bwd int) {
	return len(tb.fwdW), len(tb.bwdW)
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
	top := tb.top
	n := top.n
	dist, parent := st.DenseArrays(n)
	d := tb.dir(dir)

	sc := sweepPool.Get().(*sweepScratch)
	rootPos := top.pos[root]
	distR, parentR := sc.initFor(n, rootPos)

	// Phase 1, the upward search.
	upwardPass(distR, parentR, &d, top.upParent, rootPos)

	// Phase 2, the downward sweep: positions in descending rank, one pull
	// min-fold per node. Every downward arc's upper endpoint is final when
	// its lower endpoint is scanned; +Inf distances propagate harmlessly
	// (Inf + w never beats a finite candidate, and Inf-only nodes stay
	// unreachable).
	for i := 0; i < n; i++ {
		di := distR[i]
		lo, hi := d.downOff[i], d.downOff[i+1]
		ups, w := d.downUp[lo:hi], d.downW[lo:hi]
		w = w[:len(ups)]
		best := -1
		for k, u := range ups {
			if cand := distR[u] + w[k]; cand < di {
				di = cand
				best = k
			}
		}
		if best >= 0 {
			distR[i] = di
			parentR[i] = d.end(d.downEnds[lo+int32(best)])
		}
	}

	// Scatter the rank-space result into the node-indexed workspace
	// arrays the Tree exposes.
	for i, v := range top.order {
		dist[v] = distR[i]
		parent[v] = parentR[i]
	}
	sweepPool.Put(sc)
	t.Root, t.Dir = root, dir
	t.Dist, t.Parent = dist, parent
	return t
}
