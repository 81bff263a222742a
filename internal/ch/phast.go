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
// the elimination tree in position space and the one position-space CSR
// every customization of one hierarchy sweeps. It is built once per
// preprocessing (NewTopology) and shared by every TreeBuilder packed from
// that preprocessing's basic customizations, so a weight version pays
// only for its weight and arc-end columns. A perfect customization drops
// its inert pairs and packs a private Topology (sharing the order and the
// elimination tree). Immutable after construction.
type Topology struct {
	n int
	// pairs is the hierarchy's chordal pair count: two arcs each, whether
	// or not this topology's CSR keeps them.
	pairs int
	// private marks a topology Pack built for one perfect customization:
	// its CSR belongs to that builder (TreeBuilder.MemoryBytes).
	private bool
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
	// off/up is the CSR of the chordal pairs by position: per position
	// i, slots off[i]..off[i+1] hold the pairs whose lower endpoint sits
	// at i, and up[k] is the position of slot k's higher endpoint. A slot
	// carries both of its pair's arcs, so the one CSR serves both
	// directions: a Forward tree pushes along the up arcs (lo→hi) in
	// ascending rank (the upward search) and pulls along the down arcs
	// (hi→lo) in descending rank (the downward sweep); a Backward tree
	// swaps the two arcs, which is exactly PHAST on the reverse graph.
	// The hot loops touch sequential CSR memory plus a rank-space
	// distance array whose read side is the already-processed, cache-warm
	// region.
	off, up []int32
	// pair names the chordal pair behind each slot; Pack gathers a
	// customization's columns by it.
	pair []int32
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
	t.off, t.up, t.pair = off, up, pair
	return t
}

// PairColumns is one weight version in pair space, the form a
// customization computes it in: for pair q, UpW[q] and DownW[q] are the
// weights of its up (lo→hi) and down (hi→lo) arcs and UpEnds[q] and
// DownEnds[q] their boundary original edges. Inert, when non-nil, flags
// the pairs a perfect customization proved dead: each of their two arcs
// is strictly dominated or +Inf (ArcDead), so sweeps skip the pair
// without losing exactness (the dominating path always survives, because
// every arc on a shortest up-down path has weight equal to the distance
// of its endpoints and is therefore never strictly dominated itself).
type PairColumns struct {
	UpW, DownW       []float64
	UpEnds, DownEnds []ArcEnds
	Inert            []bool
}

// Pack builds the TreeBuilder of one weight version: it gathers c's
// columns into the slot order of t, or, when c flags inert pairs, of a
// private topology that keeps only the slots of live pairs, so full PHAST
// sweeps, RPHAST selections and Dist skip the inert ones without a check
// in the hot loops. Every array is sized once, and the work is one linear
// pass over the slots; c is not retained.
func (t *Topology) Pack(c *PairColumns) *TreeBuilder {
	top, kept := t, len(t.pair)
	if c.Inert != nil {
		kept = 0
		for _, dead := range c.Inert {
			if !dead {
				kept++
			}
		}
		top = &Topology{n: t.n, pairs: t.pairs, private: true, order: t.order, pos: t.pos, upParent: t.upParent,
			off: make([]int32, len(t.off)), up: make([]int32, kept), pair: make([]int32, kept)}
	}
	tb := &TreeBuilder{top: top,
		upW: make([]float64, kept), downW: make([]float64, kept),
		upEnds: make([]ArcEnds, kept), downEnds: make([]ArcEnds, kept)}
	j := 0
	for i := 0; i < t.n; i++ {
		for k := t.off[i]; k < t.off[i+1]; k++ {
			q := t.pair[k]
			if c.Inert != nil && c.Inert[q] {
				continue
			}
			if top.private {
				top.up[j], top.pair[j] = t.up[k], q
			}
			tb.upW[j], tb.downW[j] = c.UpW[q], c.DownW[q]
			tb.upEnds[j], tb.downEnds[j] = c.UpEnds[q], c.DownEnds[q]
			j++
		}
		if top.private {
			top.off[i+1] = int32(j)
		}
	}
	return tb
}

// ArcDead reports whether an arc of weight w can never win or tie a
// relaxation, given dist, the exact distance between its endpoints under
// the same metric: the arc is strictly dominated, or +Inf (the metric
// gives it no realizing path). Strict domination keeps equal-weight arcs
// alive, which is what preserves tie-breaking, and with it byte-identical
// parents, in every sweep that skips dead arcs.
func ArcDead(w, dist float64) bool { return dist < w || math.IsInf(w, 1) }

// MarkInert records the builder's inert mask, which NewJoint prunes by:
// given the exact directed distances between every chordal pair's
// endpoints in pair space (up[q] from lo to hi, down[q] from hi to lo, as
// a perfect customization computes them), it flags the pairs both of
// whose arcs are dead. It is part of construction: call it once, on a
// builder packed without a mask, before the builder is shared.
func (tb *TreeBuilder) MarkInert(up, down []float64) {
	t := tb.top
	tb.inert = make([]bool, t.pairs)
	for k, q := range t.pair {
		tb.inert[q] = ArcDead(tb.upW[k], up[q]) && ArcDead(tb.downW[k], down[q])
	}
}

// csrBytes is the retained size of the topology's CSR.
func (t *Topology) csrBytes() int { return 4 * (len(t.off) + len(t.up) + len(t.pair)) }

// MemoryBytes reports the retained size of the topology's arrays.
func (t *Topology) MemoryBytes() int {
	return 4*(len(t.order)+len(t.pos)+len(t.upParent)) + t.csrBytes()
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
// A TreeBuilder is one weight version's columns over a Topology: per CSR
// slot, the weights of the pair's two arcs and their boundary original
// edges. Builders of one preprocessing's basic customizations share their
// topology, which is what lets a Joint of two of them sweep both
// versions' forward and backward trees in one pass.
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
	// upW/downW are the weights of each slot's up (lo→hi) and down
	// (hi→lo) arc, aligned with the topology's CSR slots.
	upW, downW []float64
	// upEnds/downEnds give, aligned with the same slots, the original
	// edges at the two ends of each (possibly shortcut) arc: the parent
	// edge a tree stores when the arc wins a relaxation is the end
	// adjacent to the tree node — last for Forward trees, first for
	// Backward. They live apart from the weights because they are read
	// only on improvement.
	upEnds, downEnds []ArcEnds
	// inert is the pair-space mask of the pairs the customization proved
	// dead under this version's metric (MarkInert; nil on a pruned
	// builder, whose topology already leaves them out). The builder's own
	// sweeps read every slot; NewJoint drops the pairs dead under both of
	// its versions.
	inert []bool
}

// downArc is one packed restricted-CSR record (rphast.go): the position
// of the arc's higher-ranked endpoint and the arc weight.
type downArc struct {
	up int32
	w  float64
}

// sweepDir is one direction's view of a TreeBuilder: the columns of the
// arcs the upward search pushes along and of those the downward sweep
// pulls along, both over the topology's one CSR, plus which arc end a
// relaxation records.
type sweepDir struct {
	pushW    []float64
	pushEnds []ArcEnds
	pullW    []float64
	pullEnds []ArcEnds
	useLast  bool
}

// dir resolves the columns a tree in direction d sweeps: a Forward tree
// pushes along up arcs and pulls along down arcs, a Backward tree the
// reverse.
func (tb *TreeBuilder) dir(d sp.Direction) sweepDir {
	if d == sp.Backward {
		return sweepDir{tb.downW, tb.downEnds, tb.upW, tb.upEnds, false}
	}
	return sweepDir{tb.upW, tb.upEnds, tb.downW, tb.downEnds, true}
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
// position's slots with the weight column w (upW for a forward search,
// downW for a backward one) into dist. Every relaxed arc ends on the
// chain, so the walk writes nothing else; clearChain undoes it.
func (t *Topology) chainWalk(dist, w []float64, root int32) {
	dist[root] = 0
	for i := root; i >= 0; i = t.upParent[i] {
		di := dist[i]
		if math.IsInf(di, 1) {
			continue
		}
		lo, hi := t.off[i], t.off[i+1]
		ups, ws := t.up[lo:hi], w[lo:hi]
		ws = ws[:len(ups)]
		for k, u := range ups {
			if cand := di + ws[k]; cand < dist[u] {
				dist[u] = cand
			}
		}
	}
}

// clearChain resets root's elimination-tree chain in dist to +Inf.
func (t *Topology) clearChain(dist []float64, root int32) {
	for i := root; i >= 0; i = t.upParent[i] {
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
func upwardPass(distR []float64, parentR []graph.EdgeID, d *sweepDir, t *Topology, rootPos int32) {
	for i := rootPos; i >= 0; i = t.upParent[i] {
		di := distR[i]
		if math.IsInf(di, 1) {
			continue
		}
		lo, hi := t.off[i], t.off[i+1]
		ups, w := t.up[lo:hi], d.pushW[lo:hi]
		w = w[:len(ups)]
		for k, u := range ups {
			if cand := di + w[k]; cand < distR[u] {
				distR[u] = cand
				parentR[u] = d.end(d.pushEnds[lo+int32(k)])
			}
		}
	}
}

// Topology returns the sweep topology the builder's columns are aligned
// with. Builders of one preprocessing's basic customizations return the
// same pointer.
func (tb *TreeBuilder) Topology() *Topology { return tb.top }

// MemoryBytes reports the retained size of what the builder owns: its
// weight and arc-end columns, its inert mask (one byte per pair on a
// basic customization) and, when Pack built it a private topology (a
// perfect customization), that topology's CSR. The order, positions and
// elimination tree it shares with the preprocessing's topology are not
// counted, nor is a shared CSR (Topology.MemoryBytes counts them).
func (tb *TreeBuilder) MemoryBytes() int {
	const endBytes = int(unsafe.Sizeof(ArcEnds{}))
	b := 8*(cap(tb.upW)+cap(tb.downW)) + endBytes*(cap(tb.upEnds)+cap(tb.downEnds)) + cap(tb.inert)
	if tb.top.private {
		b += tb.top.csrBytes()
	}
	return b
}

// ArcColumns reads the builder's slot columns back in arc order, for
// tests: arc 2q is pair q's up arc (lo→hi) and arc 2q+1 its down arc
// (hi→lo), pairs indexed as passed to NewTopology. in[a] reports whether
// arc a is in the builder's topology (false for both arcs of a pair a
// perfect customization dropped); w[a] and ends[a] are its weight and
// ends when it is, and zero otherwise. The slices are fresh copies.
func (tb *TreeBuilder) ArcColumns() (w []float64, ends []ArcEnds, in []bool) {
	t := tb.top
	w = make([]float64, 2*t.pairs)
	ends = make([]ArcEnds, 2*t.pairs)
	in = make([]bool, 2*t.pairs)
	for k, q := range t.pair {
		w[2*q], ends[2*q], in[2*q] = tb.upW[k], tb.upEnds[k], true
		w[2*q+1], ends[2*q+1], in[2*q+1] = tb.downW[k], tb.downEnds[k], true
	}
	return w, ends, in
}

// NumSweepArcs returns how many arcs a full tree's downward sweep relaxes,
// the same in either direction — the per-tree work a customization's
// topology implies. Perfect CCH customization shrinks it by dropping
// inert pairs.
func (tb *TreeBuilder) NumSweepArcs() int { return len(tb.upW) }

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
	upwardPass(distR, parentR, &d, top, rootPos)

	// Phase 2, the downward sweep: positions in descending rank, one pull
	// min-fold per node. Every downward arc's upper endpoint is final when
	// its lower endpoint is scanned; +Inf distances propagate harmlessly
	// (Inf + w never beats a finite candidate, and Inf-only nodes stay
	// unreachable).
	for i := 0; i < n; i++ {
		di := distR[i]
		lo, hi := top.off[i], top.off[i+1]
		ups, w := top.up[lo:hi], d.pullW[lo:hi]
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
			parentR[i] = d.end(d.pullEnds[lo+int32(best)])
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
