package ch

import (
	"math"
	mbits "math/bits"

	"repro/internal/graph"
	"repro/internal/sp"
)

// The point-to-point query: on a hierarchy whose upward neighborhoods are
// cliques (the CCH chordal supergraph), the upward search space of any
// node is contained in its elimination-tree root path (elimtree.go), so a
// point-to-point query needs no heap, no decrease-key and no stopping
// criterion — it walks the two root paths in ascending rank, relaxing
// upward arcs, and the answer is the best meeting label.

// elimSearchInto runs the query on the workspace's two epoch-stamped
// search states (parent slots hold arc indices rather than graph edges,
// which Path unpacks) and returns the distance and meeting node. The walk
// is frontier-driven: each side keeps a bitmap of root-path depths
// holding a pending label (sp.AscentScratch), and the loop settles the
// deepest pending label of either side — jumping from label to label
// rather than chasing parent pointers through unlabeled ancestors, so the
// walk is O(labeled nodes), not O(path length). Depths strictly decrease,
// and every relax target is a strict ancestor of the node being settled
// (the clique property), so a settled label is final — Dijkstra's
// invariant without the heap. A node pending in both frontiers at once is
// a meet candidate (below the LCA the chains are node-disjoint and the
// equality check rejects the pairing); both directions prune relaxations
// against the incumbent, which is what lets short-range queries abandon
// the shared tail toward the root. Endpoints in different
// elimination-forest components never co-label a node and fall out as
// +Inf; a side whose frontier drains while the other still has work ends
// the walk (a meet needs labels from both directions).
func (h *Runtime) elimSearchInto(ws *sp.Workspace, s, t graph.NodeID) (float64, graph.NodeID) {
	if s == t {
		return 0, s
	}
	n := h.g.NumNodes()
	f, b := &ws.F, &ws.B
	f.Begin(n)
	b.Begin(n)
	f.Update(s, 0, -1)
	b.Update(t, 0, -1)

	dep := h.elim.Depth
	inert, arcTo, arcW, arcFrom := h.inert, h.arcTo, h.arcW, h.arcFrom
	fa, ba := &ws.FA, &ws.BA
	ds, dt := int(dep[s]), int(dep[t])
	top := max(ds, dt)
	fa.Begin(top)
	ba.Begin(top)
	fa.Mark(ds, s)
	ba.Mark(dt, t)
	// The frontier bitmaps and chains, fused inline (marks and scans run
	// per relaxation — keeping the slice headers in registers matters).
	fbits, fchain := fa.Raw()
	bbits, bchain := ba.Raw()

	fLive, bLive := 1, 1
	best := math.Inf(1)
	meet := graph.InvalidNode
	for d := top; ; d-- {
		// Scan both bitmaps down from d for the next pending depth.
		w, mask := d>>6, uint64(2)<<uint(d&63)-1
		bs := (fbits[w] | bbits[w]) & mask
		for bs == 0 {
			if w == 0 {
				return best, meet
			}
			w--
			bs = fbits[w] | bbits[w]
		}
		d = w<<6 + mbits.Len64(bs) - 1
		bit := uint64(1) << uint(d&63)
		var fx, bx graph.NodeID
		df, db := math.Inf(1), math.Inf(1)
		fok := fbits[w]&bit != 0
		if fok {
			fbits[w] &^= bit
			fx = fchain[d]
			fLive--
			df = f.DistOf(fx)
		}
		bok := bbits[w]&bit != 0
		if bok {
			bbits[w] &^= bit
			bx = bchain[d]
			bLive--
			db = b.DistOf(bx)
		}
		if fok && bok && fx == bx {
			if dd := df + db; dd < best {
				best = dd
				meet = fx
			}
		}
		// Relaxations peek the opposite direction's current label at every
		// node they improve: any labeled pairing is a valid path length, so
		// the incumbent forms as soon as the frontiers first overlap — high
		// in a shared separator clique, typically within the first settles —
		// and the nd < best gate then starves the rest of the walk. The last
		// write on either side of a co-labeled node always sees the other
		// side's final label, so best converges to the exact minimum even
		// when the walk stops before settling every pending label.
		if df < best {
			for _, ai := range h.upFwdAt(fx) {
				if inert != nil && inert[ai] {
					continue
				}
				to := arcTo[ai]
				nd := df + arcW[ai]
				if nd < best {
					improved, fresh := f.Improve(to, nd, graph.EdgeID(ai))
					if improved {
						if dd := nd + b.DistOf(to); dd < best {
							best = dd
							meet = to
						}
					}
					if fresh {
						fLive++
						dto := int(dep[to])
						fbits[dto>>6] |= 1 << uint(dto&63)
						fchain[dto] = to
					}
				}
			}
		}
		if db < best {
			for _, ai := range h.upBwdAt(bx) {
				if inert != nil && inert[ai] {
					continue
				}
				from := arcFrom[ai]
				nd := db + arcW[ai]
				if nd < best {
					improved, fresh := b.Improve(from, nd, graph.EdgeID(ai))
					if improved {
						if dd := nd + f.DistOf(from); dd < best {
							best = dd
							meet = from
						}
					}
					if fresh {
						bLive++
						dfrom := int(dep[from])
						bbits[dfrom>>6] |= 1 << uint(dfrom&63)
						bchain[dfrom] = from
					}
				}
			}
		}
		// Depth 0 is a root: nothing relaxes below it, the walk is complete.
		if d == 0 {
			return best, meet
		}
		// A meet needs labels from BOTH directions, and a drained side can
		// never label another node — either drain ends the walk.
		if fLive == 0 || bLive == 0 {
			return best, meet
		}
	}
}
