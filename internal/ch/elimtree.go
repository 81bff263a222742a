package ch

import "repro/internal/graph"

// ElimTree is the elimination tree of a chordal supergraph: Parent[v] is
// v's lowest-ranked upward neighbor (graph.InvalidNode at the roots —
// nodes with no upward arcs, one per connected component). Because a
// node's upward neighborhood forms a clique, every upward neighbor of v —
// and transitively every node reachable from v by upward arcs — lies on
// v's unique root path, which is what lets the sweeps' upward phases and
// a point-to-point query walk root paths instead of running a
// priority-queue search (Topology.upParent holds the tree in position
// space).
//
// The tree depends only on the contraction topology, never on weights, so
// one tree (built once per preprocessing) is shared by every
// customization. It is immutable and safe for concurrent use.
type ElimTree struct {
	// Parent[v] is the next node on v's root path, InvalidNode at roots.
	Parent []graph.NodeID
	// Depth[v] counts v's ancestors (0 at roots). Depth bounds every
	// chain walk: an upward search from v touches at most Depth[v]+1
	// nodes.
	Depth []int32
}

// Height returns the number of nodes on the longest root path — the
// worst-case length of any chain walk.
func (t *ElimTree) Height() int {
	max := int32(-1)
	for _, d := range t.Depth {
		if d > max {
			max = d
		}
	}
	return int(max) + 1
}
