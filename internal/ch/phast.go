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
// preprocessing (NewTopology) and shared by every TreeBuilder packed from
// that preprocessing's basic customizations, so a weight version pays
// only for its weight and arc-end columns. A perfect customization drops
// its inert arcs and packs a private Topology (sharing the order and the
// elimination tree). Immutable after construction.
type Topology struct {
	n int
	// pairs is the hierarchy's chordal pair count: two arcs each, whether
	// or not this topology's CSRs keep them.
	pairs int
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
	// already-processed, cache-warm region. Every chordal pair has an arc
	// each way, so on the shared topology the two CSRs are equal and
	// share storage.
	fwdOff, bwdOff []int32
	fwdUp, bwdUp   []int32
	// fwdPair/bwdPair name the chordal pair behind each CSR slot: a fwd
	// slot holds the pair's down arc (hi→lo), a bwd slot its up arc
	// (lo→hi). They are what Pack gathers a customization's columns by;
	// the shared topology has one array for both.
	fwdPair, bwdPair []int32
}

// NewTopology builds the sweep topology of a chordal hierarchy, which
// every basic customization of it shares. rank is the contraction order
// (a permutation, higher = more important), parent the elimination tree
// (graph.InvalidNode at roots), and pair q joins lo[q] and hi[q], with
// rank[lo[q]] < rank[hi[q]], by an up arc lo→hi and a down arc hi→lo. The
// caller vouches that upward neighborhoods are cliques, so a node's
// elimination-tree chain carries its upward search space — package cch's
// chordal supergraph satisfies this by construction. A position lists
// the pairs whose lower endpoint it holds, in ascending pair index. The
// slices are not retained.
func NewTopology(rank []int32, lo, hi, parent []graph.NodeID) *Topology {
	n := len(rank)
	t := &Topology{n: n, pairs: len(lo)}
	// Nodes in descending contraction rank (rank is a permutation).
	t.order = make([]graph.NodeID, n)
	for v, r := range rank {
		t.order[n-1-int(r)] = graph.NodeID(v)
	}
	t.pos = make([]int32, n)
	for i, v := range t.order {
		t.pos[v] = int32(i)
	}
	t.upParent = make([]int32, n)
	for i, v := range t.order {
		t.upParent[i] = -1
		if p := parent[v]; p != graph.InvalidNode {
			t.upParent[i] = t.pos[p]
		}
	}
	// Count, prefix-sum, fill.
	off := make([]int32, n+1)
	for _, v := range lo {
		off[t.pos[v]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	up := make([]int32, len(lo))
	pair := make([]int32, len(lo))
	next := slices.Clone(off[:n])
	for q, v := range lo {
		k := next[t.pos[v]]
		next[t.pos[v]]++
		up[k], pair[k] = t.pos[hi[q]], int32(q)
	}
	t.fwdOff, t.fwdUp, t.fwdPair = off, up, pair
	t.bwdOff, t.bwdUp, t.bwdPair = off, up, pair
	return t
}

// PairColumns is one weight version in pair space, the form a
// customization computes it in: for pair q, UpW[q] and DownW[q] are the
// weights of its up (lo→hi) and down (hi→lo) arcs and UpEnds[q] and
// DownEnds[q] their boundary original edges. InertUp and InertDown, when
// non-nil, flag the arcs a perfect customization proved strictly
// dominated: sweeps skip them without losing exactness (the dominating
// path always survives, because every arc on a shortest up-down path has
// weight equal to the distance of its endpoints and is therefore never
// strictly dominated itself).
type PairColumns struct {
	UpW, DownW         []float64
	UpEnds, DownEnds   []ArcEnds
	InertUp, InertDown []bool
}

// Pack builds the TreeBuilder of one weight version: it gathers c's
// columns into the slot order of t, or, when c flags inert arcs, of a
// private topology that drops them, so full PHAST sweeps, RPHAST
// selections and Dist skip them without a per-arc check in the hot loops.
// The work is one linear pass over the slots; c is not retained.
func (t *Topology) Pack(c *PairColumns) *TreeBuilder {
	top := t
	if c.InertUp != nil {
		top = &Topology{n: t.n, pairs: t.pairs, order: t.order, pos: t.pos, upParent: t.upParent}
		top.fwdOff, top.fwdUp, top.fwdPair = keepSlots(t.fwdOff, t.fwdUp, t.fwdPair, c.InertDown)
		top.bwdOff, top.bwdUp, top.bwdPair = keepSlots(t.bwdOff, t.bwdUp, t.bwdPair, c.InertUp)
	}
	tb := &TreeBuilder{top: top}
	tb.fwdW, tb.fwdEnds = gather(top.fwdPair, c.DownW, c.DownEnds)
	tb.bwdW, tb.bwdEnds = gather(top.bwdPair, c.UpW, c.UpEnds)
	return tb
}

// keepSlots returns the CSR (off, up, pair) without the slots whose pair
// is flagged in drop.
func keepSlots(off, up, pair []int32, drop []bool) (kOff, kUp, kPair []int32) {
	kept := 0
	for _, q := range pair {
		if !drop[q] {
			kept++
		}
	}
	kOff = make([]int32, len(off))
	kUp = make([]int32, 0, kept)
	kPair = make([]int32, 0, kept)
	for i := 0; i+1 < len(off); i++ {
		for k := off[i]; k < off[i+1]; k++ {
			if q := pair[k]; !drop[q] {
				kUp = append(kUp, up[k])
				kPair = append(kPair, q)
			}
		}
		kOff[i+1] = int32(len(kUp))
	}
	return kOff, kUp, kPair
}

// gather packs pair-space weights and ends into slot order.
func gather(pair []int32, w []float64, ends []ArcEnds) ([]float64, []ArcEnds) {
	gw := make([]float64, len(pair))
	ge := make([]ArcEnds, len(pair))
	for k, q := range pair {
		gw[k], ge[k] = w[q], ends[q]
	}
	return gw, ge
}

// MemoryBytes reports the retained size of the topology's arrays, the
// arrays the backward direction shares with the forward one counted once.
func (t *Topology) MemoryBytes() int {
	b := 4 * (len(t.order) + len(t.pos) + len(t.upParent) + len(t.fwdOff) + len(t.fwdUp) + len(t.fwdPair))
	for _, a := range [][2][]int32{{t.bwdOff, t.fwdOff}, {t.bwdUp, t.fwdUp}, {t.bwdPair, t.fwdPair}} {
		if unsafe.SliceData(a[0]) != unsafe.SliceData(a[1]) {
			b += 4 * len(a[0])
		}
	}
	return b
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
// *original-graph* edges — each arc carries the first and last original
// edge its customization resolved, and a relaxation records the one
// adjacent to the tree node — so tree consumers (plateau join, path
// reconstruction) cannot tell them from Dijkstra-built trees.
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
	fwdEnds, bwdEnds []ArcEnds
}

// downArc is one packed restricted-CSR record (rphast.go): the position
// of the arc's higher-ranked endpoint and the arc weight.
type downArc struct {
	up int32
	w  float64
}

// sweepDir is one direction's view of a TreeBuilder: the CSR the upward
// search pushes along and the one the downward sweep pulls along, each
// with the builder's columns, plus which arc end a relaxation records.
type sweepDir struct {
	upOff, upUp     []int32
	upW             []float64
	upEnds          []ArcEnds
	downOff, downUp []int32
	downW           []float64
	downEnds        []ArcEnds
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
func (d *sweepDir) end(e ArcEnds) graph.EdgeID {
	if d.useLast {
		return e.Last
	}
	return e.First
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

// chainWalk is the distances-only upward search from position root,
// shared by Dist and DistancesInto: it sets root's label to 0 and walks
// root's elimination-tree chain in ascending rank, relaxing each reached
// position's upward arcs — one CSR (off, up) and its weight column w —
// into dist. Every relaxed arc ends on the chain, so the walk writes
// nothing else; clearChain undoes it.
func chainWalk(dist []float64, upParent, off, up []int32, w []float64, root int32) {
	dist[root] = 0
	for i := root; i >= 0; i = upParent[i] {
		di := dist[i]
		if math.IsInf(di, 1) {
			continue
		}
		lo, hi := off[i], off[i+1]
		ups, ws := up[lo:hi], w[lo:hi]
		ws = ws[:len(ups)]
		for k, u := range ups {
			if cand := di + ws[k]; cand < dist[u] {
				dist[u] = cand
			}
		}
	}
}

// clearChain resets root's elimination-tree chain in dist to +Inf.
func clearChain(dist []float64, upParent []int32, root int32) {
	for i := root; i >= 0; i = upParent[i] {
		dist[i] = math.Inf(1)
	}
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

// Topology returns the sweep topology the builder's columns are aligned
// with. Builders of one preprocessing's basic customizations return the
// same pointer.
func (tb *TreeBuilder) Topology() *Topology { return tb.top }

// MemoryBytes reports the retained size of the builder's own columns:
// weights and arc ends, not the topology they index, which the builder
// usually shares (Topology.MemoryBytes counts it).
func (tb *TreeBuilder) MemoryBytes() int {
	const endBytes = int(unsafe.Sizeof(ArcEnds{}))
	return 8*(cap(tb.fwdW)+cap(tb.bwdW)) + endBytes*(cap(tb.fwdEnds)+cap(tb.bwdEnds))
}

// ArcColumns reads the builder's slot columns back in arc order, for
// tests: arc 2q is pair q's up arc (lo→hi) and arc 2q+1 its down arc
// (hi→lo), pairs indexed as passed to NewTopology. in[a] reports whether
// arc a is in the builder's topology (false for the arcs a perfect
// customization dropped); w[a] and ends[a] are its weight and ends when
// it is, and zero otherwise. The slices are fresh copies.
func (tb *TreeBuilder) ArcColumns() (w []float64, ends []ArcEnds, in []bool) {
	t := tb.top
	w = make([]float64, 2*t.pairs)
	ends = make([]ArcEnds, 2*t.pairs)
	in = make([]bool, 2*t.pairs)
	for k, q := range t.bwdPair {
		w[2*q], ends[2*q], in[2*q] = tb.bwdW[k], tb.bwdEnds[k], true
	}
	for k, q := range t.fwdPair {
		w[2*q+1], ends[2*q+1], in[2*q+1] = tb.fwdW[k], tb.fwdEnds[k], true
	}
	return w, ends, in
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
