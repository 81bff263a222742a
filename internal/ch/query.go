package ch

import (
	"math"

	"repro/internal/graph"
	"repro/internal/sp"
)

// Dist returns the exact shortest travel time from s to t, or +Inf if t is
// unreachable. The query walks the two elimination-tree root paths
// heap-free (elimquery.go).
func (h *Runtime) Dist(s, t graph.NodeID) float64 {
	ws := sp.GetWorkspace()
	defer ws.Release()
	d, _ := h.elimSearchInto(ws, s, t)
	return d
}

// Path returns the shortest s-t path as original graph edges together with
// its travel time. Shortcuts are unpacked recursively. It returns
// (nil, +Inf) when t is unreachable.
func (h *Runtime) Path(s, t graph.NodeID) ([]graph.EdgeID, float64) {
	ws := sp.GetWorkspace()
	defer ws.Release()
	d, meet := h.elimSearchInto(ws, s, t)
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
