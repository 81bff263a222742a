package ch

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/sp"
)

// This file sweeps two weight versions of one topology in a single PHAST
// pass. PHAST computes several trees per sweep for exactly this reason
// (Delling et al., "PHAST"): the downward pass is bound by reading the
// topology, and k labels per position read it once for all k trees. The
// serving case is a city's public and traffic views, which answer every
// /api/routes request from the same root and direction.

// twinScratch is the rank-space view of one twin build: per position,
// the two versions' labels side by side, so one read of an arc's upper
// endpoint serves both relaxations.
type twinScratch struct {
	dist   [][2]float64
	parent [][2]graph.EdgeID
}

// twinPool pools the twin scratch, package-level for the reason given at
// sweepPool.
var twinPool = sync.Pool{New: func() any { return new(twinScratch) }}

// BuildTwinTreesInto builds a's and b's complete trees rooted at root in
// direction dir in one pass and returns them in wsA's and wsB's tree
// slots for dir (same aliasing rules as BuildTreeInto), so wsA and wsB
// must be distinct. The builders must share one Topology — the columns of
// two basic customizations of one preprocessing — and it panics
// otherwise. Each tree is bit-identical to the builder's own
// BuildTreeInto: the two upward searches run one per label, and the
// downward pass pulls both labels along each arc in CSR order with the
// same strict comparison, so distances and parent edges match. After
// warm-up a build allocates nothing.
func BuildTwinTreesInto(wsA *sp.Workspace, a *TreeBuilder, wsB *sp.Workspace, b *TreeBuilder, root graph.NodeID, dir sp.Direction) (ta, tb *sp.Tree) {
	if a.top != b.top {
		panic("ch: twin sweep over builders of different topologies")
	}
	if wsA == wsB {
		panic("ch: twin sweep into one workspace")
	}
	top := a.top
	n := top.n
	da, db := a.dir(dir), b.dir(dir)

	sc := twinPool.Get().(*twinScratch)
	if len(sc.dist) < n {
		sc.dist = make([][2]float64, n)
		sc.parent = make([][2]graph.EdgeID, n)
	}
	dist, parent := sc.dist[:n], sc.parent[:n]
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = [2]float64{inf, inf}
		parent[i] = [2]graph.EdgeID{-1, -1}
	}
	rootPos := top.pos[root]
	dist[rootPos] = [2]float64{}

	// Phase 1, one upward search per label.
	twinUpwardPass(dist, parent, 0, &da, top, rootPos)
	twinUpwardPass(dist, parent, 1, &db, top, rootPos)

	// Phase 2, one downward sweep for both labels: each arc's upper
	// endpoint is read once, and each label keeps its own best arc.
	off, upAll := top.off, top.up
	wA, wB := da.pullW, db.pullW
	endsA, endsB := da.pullEnds, db.pullEnds
	for i := 0; i < n; i++ {
		d0, d1 := dist[i][0], dist[i][1]
		lo, hi := off[i], off[i+1]
		ups := upAll[lo:hi]
		w0, w1 := wA[lo:hi], wB[lo:hi]
		w0, w1 = w0[:len(ups)], w1[:len(ups)]
		b0, b1 := -1, -1
		for k, u := range ups {
			du := &dist[u]
			if c := du[0] + w0[k]; c < d0 {
				d0, b0 = c, k
			}
			if c := du[1] + w1[k]; c < d1 {
				d1, b1 = c, k
			}
		}
		if b0 >= 0 {
			dist[i][0] = d0
			parent[i][0] = da.end(endsA[lo+int32(b0)])
		}
		if b1 >= 0 {
			dist[i][1] = d1
			parent[i][1] = db.end(endsB[lo+int32(b1)])
		}
	}

	// Scatter both labels into their node-indexed workspace trees.
	ta, sta := wsA.TreeSlot(dir)
	tb, stb := wsB.TreeSlot(dir)
	distA, parentA := sta.DenseArrays(n)
	distB, parentB := stb.DenseArrays(n)
	for i, v := range top.order {
		distA[v], distB[v] = dist[i][0], dist[i][1]
		parentA[v], parentB[v] = parent[i][0], parent[i][1]
	}
	twinPool.Put(sc)
	ta.Root, ta.Dir, ta.Dist, ta.Parent = root, dir, distA, parentA
	tb.Root, tb.Dir, tb.Dist, tb.Parent = root, dir, distB, parentB
	return ta, tb
}

// twinUpwardPass is upwardPass on label l of the twin scratch: the walk
// up the root's elimination-tree chain.
func twinUpwardPass(dist [][2]float64, parent [][2]graph.EdgeID, l int, d *sweepDir, t *Topology, rootPos int32) {
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
