package ch

import (
	"math"

	"repro/internal/graph"
	"repro/internal/sp"
)

// Dist returns the exact shortest travel time from s to t, or +Inf if t is
// unreachable. With an elimination tree attached (the default) the
// query walks the two root paths heap-free (elimquery.go); otherwise it
// runs the standard bidirectional upward Dijkstra: the forward frontier
// climbs rank-increasing arcs from s, the backward frontier climbs from
// t, and the best meeting node gives the answer. Both engines return
// bit-identical distances.
func (h *Runtime) Dist(s, t graph.NodeID) float64 {
	ws := sp.GetWorkspace()
	defer ws.Release()
	var d float64
	if h.elim != nil {
		d, _ = h.elimSearchInto(ws, s, t)
	} else {
		d, _ = h.searchInto(ws, s, t)
	}
	return d
}

// Path returns the shortest s-t path as original graph edges together with
// its travel time. Shortcuts are unpacked recursively. It returns
// (nil, +Inf) when t is unreachable.
func (h *Runtime) Path(s, t graph.NodeID) ([]graph.EdgeID, float64) {
	ws := sp.GetWorkspace()
	defer ws.Release()
	var d float64
	var meet graph.NodeID
	if h.elim != nil {
		d, meet = h.elimSearchInto(ws, s, t)
	} else {
		d, meet = h.searchInto(ws, s, t)
	}
	if math.IsInf(d, 1) {
		return nil, d
	}
	if s == t {
		return []graph.EdgeID{}, 0
	}
	// Forward chain: arcs from s up to the meeting node, then backward
	// chain from the meeting node down to t.
	var upArcs []int32
	for cur := meet; cur != s; {
		ai := int32(ws.F.ParentOf(cur))
		upArcs = append(upArcs, ai)
		cur = h.arcFrom[ai]
	}
	reverseInt32(upArcs)
	var downArcs []int32
	for cur := meet; cur != t; {
		ai := int32(ws.B.ParentOf(cur))
		downArcs = append(downArcs, ai)
		cur = h.arcs[ai].To
	}
	var edges []graph.EdgeID
	for _, ai := range upArcs {
		h.unpack(ai, &edges)
	}
	for _, ai := range downArcs {
		h.unpack(ai, &edges)
	}
	return edges, d
}

// unpack appends the original edges of an arc, expanding shortcuts.
func (h *Runtime) unpack(ai int32, out *[]graph.EdgeID) {
	a := h.arcs[ai]
	if a.Orig >= 0 {
		*out = append(*out, a.Orig)
		return
	}
	h.unpack(a.Skip1, out)
	h.unpack(a.Skip2, out)
}

// searchInto runs the bidirectional upward search on the workspace's two
// epoch-stamped search states (parent slots hold arc indices rather than
// graph edges) and returns the distance and meeting node. Earlier versions
// allocated four maps and two container/heap queues per query; the
// workspace makes repeated queries allocation-free.
func (h *Runtime) searchInto(ws *sp.Workspace, s, t graph.NodeID) (float64, graph.NodeID) {
	if s == t {
		return 0, s
	}
	n := h.g.NumNodes()
	f, b := &ws.F, &ws.B
	f.Begin(n)
	b.Begin(n)
	f.Update(s, 0, -1)
	f.Heap.Push(s, 0)
	b.Update(t, 0, -1)
	b.Heap.Push(t, 0)

	best := math.Inf(1)
	meet := graph.InvalidNode
	inert, arcTo, arcW, arcFrom := h.inert, h.arcTo, h.arcW, h.arcFrom

	for f.Heap.Len() > 0 || b.Heap.Len() > 0 {
		topF, topB := math.Inf(1), math.Inf(1)
		if f.Heap.Len() > 0 {
			topF = f.Heap.MinPrio()
		}
		if b.Heap.Len() > 0 {
			topB = b.Heap.MinPrio()
		}
		if math.Min(topF, topB) >= best {
			break
		}
		if topF <= topB && f.Heap.Len() > 0 {
			u, du := f.Heap.Pop()
			if f.Settled(u) {
				continue
			}
			f.Settle(u)
			if d := du + b.DistOf(u); d < best {
				best = d
				meet = u
			}
			for _, ai := range h.upFwdAt(u) {
				if inert != nil && inert[ai] {
					continue
				}
				to := arcTo[ai]
				nd := du + arcW[ai]
				if nd < f.DistOf(to) {
					f.Update(to, nd, graph.EdgeID(ai))
					f.Heap.Push(to, nd)
				}
			}
		} else if b.Heap.Len() > 0 {
			u, du := b.Heap.Pop()
			if b.Settled(u) {
				continue
			}
			b.Settle(u)
			if d := du + f.DistOf(u); d < best {
				best = d
				meet = u
			}
			for _, ai := range h.upBwdAt(u) {
				if inert != nil && inert[ai] {
					continue
				}
				from := arcFrom[ai]
				nd := du + arcW[ai]
				if nd < b.DistOf(from) {
					b.Update(from, nd, graph.EdgeID(ai))
					b.Heap.Push(from, nd)
				}
			}
		}
	}
	return best, meet
}

// NumArcs returns the hierarchy's arc count (original edges + shortcuts),
// a preprocessing size measure.
func (h *Runtime) NumArcs() int { return len(h.arcs) }

// NumShortcuts returns the number of arcs not backed by a single original
// edge. The split is metric-dependent: an arc counts as a shortcut when
// the current customization resolved it through a lower triangle, or left
// it impassable.
func (h *Runtime) NumShortcuts() int {
	count := 0
	for i := range h.arcs {
		if h.arcs[i].Orig < 0 {
			count++
		}
	}
	return count
}

func reverseInt32(xs []int32) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
