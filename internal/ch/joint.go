package ch

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/sp"
)

// This file sweeps all four trees of one (s, t) query over two weight
// versions of one topology — a's and b's forward tree from s and
// backward tree into t — in a single PHAST pass. PHAST batches trees per
// sweep for exactly this reason (Delling, Goldberg, Nowatzyk & Werneck,
// "PHAST", IPDPS 2011): the downward pass is bound by reading the
// topology, and k labels per position read it once for all k trees. A
// forward tree pulls the down arcs along the slots of the one CSR and a
// backward tree pulls the up arcs along the same slots, so a slot's upper
// position is read once for all four labels. The serving case is a
// city's public and traffic views, which answer every /api/routes miss
// from the same (s, t).

// Label order of a joint pass: a's and b's forward labels, then a's and
// b's backward labels.
const (
	fwdA = iota
	fwdB
	bwdA
	bwdB
)

// Joint is the downward-pass topology of two basic customizations of
// one preprocessing, pruned by both (perfect customization applied to
// whole pairs; Dibbelt, Strasser & Wagner, "Customizable Contraction
// Hierarchies", JEA 2016): it keeps the slots of the pairs live under a's
// or b's metric and drops those inert under both, which no relaxation of
// either version can use. Per kept slot it stores the pull side of all
// four labels interleaved — the weights of a's and b's down arcs (the
// forward trees) and of their up arcs (the backward trees), and the
// parent edge each records — so one read of a slot serves every label.
// A Joint is built once per pair of versions (NewJoint), is immutable,
// and is safe for concurrent use.
type Joint struct {
	a, b *TreeBuilder
	// off/up is the pruned CSR by position, laid out like Topology's.
	off, up []int32
	// w and ends are the interleaved pull columns, in label order: a's
	// and b's down-arc weights and Last ends, then their up-arc weights
	// and First ends.
	w    [][4]float64
	ends [][4]graph.EdgeID
}

// NewJoint packs the joint topology of a and b, which must be basic
// customizations of one preprocessing: it panics when their topologies
// differ (a perfect customization's private topology included). A pair
// is dropped only when both builders' inert masks flag it; a builder
// without a mask keeps every pair. a and b are retained: the pass runs
// their upward searches on the full topology with their own columns.
func NewJoint(a, b *TreeBuilder) *Joint {
	if a.top != b.top {
		panic("ch: joint of builders of different topologies")
	}
	t := a.top
	live := func(q int32) bool {
		return a.inert == nil || b.inert == nil || !a.inert[q] || !b.inert[q]
	}
	kept := 0
	for _, q := range t.pair {
		if live(q) {
			kept++
		}
	}
	j := &Joint{a: a, b: b, off: make([]int32, t.n+1), up: make([]int32, kept),
		w: make([][4]float64, kept), ends: make([][4]graph.EdgeID, kept)}
	k := 0
	for i := 0; i < t.n; i++ {
		for s := t.off[i]; s < t.off[i+1]; s++ {
			if !live(t.pair[s]) {
				continue
			}
			j.up[k] = t.up[s]
			j.w[k] = [4]float64{a.downW[s], b.downW[s], a.upW[s], b.upW[s]}
			j.ends[k] = [4]graph.EdgeID{a.downEnds[s].Last, b.downEnds[s].Last, a.upEnds[s].First, b.upEnds[s].First}
			k++
		}
		j.off[i+1] = int32(k)
	}
	return j
}

// Builders returns the two versions the joint was packed from, in the
// order NewJoint took them.
func (j *Joint) Builders() (a, b *TreeBuilder) { return j.a, j.b }

// NumPairs returns how many chordal pairs the joint keeps, the slots its
// downward pass reads; the topology's full count is NumArcs()/2 of
// either builder.
func (j *Joint) NumPairs() int { return len(j.up) }

// MemoryBytes reports the retained size of the joint's own arrays, 52
// bytes per kept pair plus an offset per position; the builders it
// references are not counted.
func (j *Joint) MemoryBytes() int {
	return 4*(cap(j.off)+cap(j.up)) + 32*cap(j.w) + 16*cap(j.ends)
}

// quadScratch is the rank-space view of one joint pass: per position, the
// four labels side by side.
type quadScratch struct {
	dist   [][4]float64
	parent [][4]graph.EdgeID
}

// quadPool pools the joint pass scratch, package-level for the reason
// given at sweepPool.
var quadPool = sync.Pool{New: func() any { return new(quadScratch) }}

// BuildTreesInto builds a's and b's forward trees rooted at s and
// backward trees rooted at t in one pass, and returns them in the tree
// slots of wsA (a's trees) and wsB (b's trees) — same aliasing rules as
// BuildTreeInto — so wsA and wsB must be distinct. Every tree is
// bit-identical to the builder's own BuildTreeInto, in distance bits and
// parent edge: the four upward searches are BuildTreeInto's phase 1 on
// the full topology with each builder's own columns, and the downward
// pass pulls each label along the joint's slots in CSR order with the
// same strict comparison. A slot the joint dropped is inert under both
// metrics, so it never wins or ties a label's pull. After warm-up a
// pass allocates nothing.
func (j *Joint) BuildTreesInto(wsA, wsB *sp.Workspace, s, t graph.NodeID) (fwdTreeA, bwdTreeA, fwdTreeB, bwdTreeB *sp.Tree) {
	if wsA == wsB {
		panic("ch: joint pass into one workspace")
	}
	top := j.a.top
	n := top.n

	sc := quadPool.Get().(*quadScratch)
	if len(sc.dist) < n {
		sc.dist = make([][4]float64, n)
		sc.parent = make([][4]graph.EdgeID, n)
	}
	dist, parent := sc.dist[:n], sc.parent[:n]
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = [4]float64{inf, inf, inf, inf}
		parent[i] = [4]graph.EdgeID{-1, -1, -1, -1}
	}
	ps, pt := top.pos[s], top.pos[t]

	// Phase 1, one upward search per label on the full topology.
	for _, u := range [4]struct {
		l    int
		d    sweepDir
		root int32
	}{
		{fwdA, j.a.dir(sp.Forward), ps}, {fwdB, j.b.dir(sp.Forward), ps},
		{bwdA, j.a.dir(sp.Backward), pt}, {bwdB, j.b.dir(sp.Backward), pt},
	} {
		quadUpwardPass(dist, parent, u.l, &u.d, top, u.root)
	}

	// Phase 2, one downward sweep over the joint's slots for all four
	// labels: each slot's upper position is read once, and each label
	// keeps its own best slot.
	off, upAll, wAll := j.off, j.up, j.w
	for i := 0; i < n; i++ {
		di := &dist[i]
		d0, d1, d2, d3 := di[0], di[1], di[2], di[3]
		lo, hi := off[i], off[i+1]
		ups := upAll[lo:hi]
		ws := wAll[lo:hi]
		ws = ws[:len(ups)]
		b0, b1, b2, b3 := -1, -1, -1, -1
		for k, u := range ups {
			du, w := &dist[u], &ws[k]
			if c := du[0] + w[0]; c < d0 {
				d0, b0 = c, k
			}
			if c := du[1] + w[1]; c < d1 {
				d1, b1 = c, k
			}
			if c := du[2] + w[2]; c < d2 {
				d2, b2 = c, k
			}
			if c := du[3] + w[3]; c < d3 {
				d3, b3 = c, k
			}
		}
		*di = [4]float64{d0, d1, d2, d3}
		pi := &parent[i]
		if b0 >= 0 {
			pi[0] = j.ends[lo+int32(b0)][0]
		}
		if b1 >= 0 {
			pi[1] = j.ends[lo+int32(b1)][1]
		}
		if b2 >= 0 {
			pi[2] = j.ends[lo+int32(b2)][2]
		}
		if b3 >= 0 {
			pi[3] = j.ends[lo+int32(b3)][3]
		}
	}

	// Scatter the four labels into their node-indexed workspace trees.
	fa, sfa := wsA.TreeSlot(sp.Forward)
	ba, sba := wsA.TreeSlot(sp.Backward)
	fb, sfb := wsB.TreeSlot(sp.Forward)
	bb, sbb := wsB.TreeSlot(sp.Backward)
	distFA, parentFA := sfa.DenseArrays(n)
	distBA, parentBA := sba.DenseArrays(n)
	distFB, parentFB := sfb.DenseArrays(n)
	distBB, parentBB := sbb.DenseArrays(n)
	for i, v := range top.order {
		d, p := &dist[i], &parent[i]
		distFA[v], distFB[v], distBA[v], distBB[v] = d[fwdA], d[fwdB], d[bwdA], d[bwdB]
		parentFA[v], parentFB[v], parentBA[v], parentBB[v] = p[fwdA], p[fwdB], p[bwdA], p[bwdB]
	}
	quadPool.Put(sc)
	fa.Root, fa.Dir, fa.Dist, fa.Parent = s, sp.Forward, distFA, parentFA
	fb.Root, fb.Dir, fb.Dist, fb.Parent = s, sp.Forward, distFB, parentFB
	ba.Root, ba.Dir, ba.Dist, ba.Parent = t, sp.Backward, distBA, parentBA
	bb.Root, bb.Dir, bb.Dist, bb.Parent = t, sp.Backward, distBB, parentBB
	return fa, ba, fb, bb
}

// quadUpwardPass is upwardPass on label l of the joint scratch: the walk
// up the root's elimination-tree chain over the full topology.
func quadUpwardPass(dist [][4]float64, parent [][4]graph.EdgeID, l int, d *sweepDir, t *Topology, rootPos int32) {
	dist[rootPos][l] = 0
	for i := rootPos; i >= 0; i = t.upParent[i] {
		di := dist[i][l]
		if math.IsInf(di, 1) {
			continue
		}
		lo, hi := t.off[i], t.off[i+1]
		ups, w := t.up[lo:hi], d.pushW[lo:hi]
		w = w[:len(ups)]
		for k, u := range ups {
			if cand := di + w[k]; cand < dist[u][l] {
				dist[u][l] = cand
				parent[u][l] = d.end(d.pushEnds[lo+int32(k)])
			}
		}
	}
}
