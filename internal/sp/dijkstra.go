// Package sp implements the shortest-path machinery all alternative-route
// techniques are built on: Dijkstra's algorithm, full shortest-path trees
// in both directions (the substrate of the Plateaus and Dissimilarity
// techniques), bidirectional Dijkstra, and A* with a haversine potential
// or a caller-supplied one (PotentialShortestPathInto).
//
// All searches take an explicit weight slice indexed by EdgeID so that the
// Penalty technique and the traffic simulation can run on perturbed
// weights without copying the graph.
//
// # Workspaces and the epoch reset
//
// Every search but the potential one exists in two forms: a convenience
// form (BuildTree, ShortestPath, ...) that returns independently owned
// results, and an allocation-free ...Into form taking an explicit
// *Workspace whose results alias workspace memory. The workspace holds
// the per-search dist/parent arrays, generation-stamp arrays and 4-ary
// heaps. Clearing between searches is O(1): instead of re-filling dist
// with +Inf, Begin bumps a generation counter and stale slots are treated
// as +Inf on read (see SearchState). Relaxations additionally read packed per-direction head
// arrays from the graph (OutHeads/InTails), so the hot loop touches two
// sequential int32/float64 arrays instead of loading a 40-byte Edge struct
// per edge. Under the serving layer (core.Engine) workspaces are pooled
// via sync.Pool, making steady-state query processing allocation-free.
package sp

import (
	"math"

	"repro/internal/geo"
	"repro/internal/graph"
)

// Direction selects whether a tree grows along edges (Forward, rooted at a
// source) or against them (Backward, rooted at a target).
type Direction uint8

// Tree growth directions.
const (
	Forward Direction = iota
	Backward
)

// Tree is a complete shortest-path tree: for every node, the distance from
// (Forward) or to (Backward) the root, and the tree edge through which the
// node is reached.
type Tree struct {
	Root   graph.NodeID
	Dir    Direction
	Dist   []float64      // Dist[v] = shortest travel time root→v (or v→root)
	Parent []graph.EdgeID // Parent[v] = tree edge into v (Forward) / out of v (Backward); -1 at root and unreachable nodes
}

// Reached reports whether v is reachable from/to the root.
func (t *Tree) Reached(v graph.NodeID) bool {
	return !math.IsInf(t.Dist[v], 1)
}

// PathTo reconstructs the shortest path between the root and v as an edge
// sequence. For Forward trees the edges run root→v; for Backward trees they
// run v→root. It returns nil if v is unreachable.
func (t *Tree) PathTo(g *graph.Graph, v graph.NodeID) []graph.EdgeID {
	edges, ok := t.PathInto(make([]graph.EdgeID, 0, 32), g, v)
	if !ok {
		return nil
	}
	return edges
}

// PathInto is PathTo on caller-provided storage: the path's edges are
// appended to buf (in root→v order for Forward trees, v→root for
// Backward) and the extended slice is returned. ok is false when v is
// unreachable or the tree is broken, in which case buf is returned with
// nothing appended. Threading a workspace's PathBuf through repeated
// reconstructions makes route extraction allocation-free.
func (t *Tree) PathInto(buf []graph.EdgeID, g *graph.Graph, v graph.NodeID) ([]graph.EdgeID, bool) {
	if !t.Reached(v) {
		return buf, false
	}
	mark := len(buf)
	cur := v
	for cur != t.Root {
		e := t.Parent[cur]
		if e < 0 {
			return buf[:mark], false // defensive: broken tree
		}
		buf = append(buf, e)
		if t.Dir == Forward {
			cur = g.Edge(e).From
		} else {
			cur = g.Edge(e).To
		}
	}
	if t.Dir == Forward {
		reverse(buf[mark:])
	}
	return buf, true
}

// Clone returns an independently owned copy of a workspace-backed tree.
func (t *Tree) Clone() *Tree {
	return &Tree{
		Root:   t.Root,
		Dir:    t.Dir,
		Dist:   append([]float64(nil), t.Dist...),
		Parent: append([]graph.EdgeID(nil), t.Parent...),
	}
}

func reverse(e []graph.EdgeID) {
	for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
		e[i], e[j] = e[j], e[i]
	}
}

// forwardPath assembles the s→t path held by the F slot's parent
// pointers in the workspace's path buffer, and returns it with t's
// distance; (nil, +Inf) when the search did not reach t.
func (ws *Workspace) forwardPath(g *graph.Graph, s, t graph.NodeID) ([]graph.EdgeID, float64) {
	st := &ws.F
	if !st.Touched(t) {
		return nil, math.Inf(1)
	}
	edges := ws.pathBuf()
	for cur := t; cur != s; {
		e := st.parent[cur]
		edges = append(edges, e)
		cur = g.Edge(e).From
	}
	reverse(edges)
	ws.path = edges
	return edges, st.dist[t]
}

// copyEdges returns an independently owned copy of a workspace-backed edge
// sequence, preserving nil-ness.
func copyEdges(edges []graph.EdgeID) []graph.EdgeID {
	if edges == nil {
		return nil
	}
	return append(make([]graph.EdgeID, 0, len(edges)), edges...)
}

// BuildTree runs a full Dijkstra from root over the whole graph and returns
// the shortest-path tree. weights must have one entry per edge; pass
// g.CopyWeights() (or a perturbed copy) to choose the metric.
func BuildTree(g *graph.Graph, weights []float64, root graph.NodeID, dir Direction) *Tree {
	ws := GetWorkspace()
	defer ws.Release()
	return BuildTreeInto(ws, g, weights, root, dir).Clone()
}

// BuildTreeInto is BuildTree on workspace memory: the returned Tree aliases
// ws and is valid until the next search using the same slot (Forward trees
// and point-to-point searches share one slot, Backward trees the other).
func BuildTreeInto(ws *Workspace, g *graph.Graph, weights []float64, root graph.NodeID, dir Direction) *Tree {
	n := g.NumNodes()
	t, s := ws.treeSlot(dir)
	s.Begin(n)
	s.Update(root, 0, -1)
	s.Heap.Push(root, 0)
	dist, parent, stamp, cur := s.dist, s.parent, s.stamp, s.cur
	for s.Heap.Len() > 0 {
		u, du := s.Heap.Pop()
		if stamp[u] == cur+1 {
			continue // stale duplicate; already settled
		}
		stamp[u] = cur + 1
		var adj []graph.EdgeID
		var ends []graph.NodeID
		if dir == Forward {
			adj, ends = g.OutEdges(u), g.OutHeads(u)
		} else {
			adj, ends = g.InEdges(u), g.InTails(u)
		}
		for i, e := range adj {
			v := ends[i]
			nd := du + weights[e]
			if stamp[v] >= cur && nd >= dist[v] {
				continue
			}
			if math.IsInf(nd, 1) {
				continue // +Inf weights are bans; never traverse them
			}
			dist[v] = nd
			parent[v] = e
			if stamp[v] < cur {
				stamp[v] = cur
			}
			s.Heap.Push(v, nd)
		}
	}
	t.Root, t.Dir = root, dir
	t.Dist, t.Parent = s.Finalize(n)
	return t
}

// ShortestPath runs a target-pruned Dijkstra from s and returns the
// shortest s→t path as an edge sequence plus its travel time. It returns
// (nil, +Inf) when t is unreachable from s.
func ShortestPath(g *graph.Graph, weights []float64, s, t graph.NodeID) ([]graph.EdgeID, float64) {
	ws := GetWorkspace()
	defer ws.Release()
	edges, d := ShortestPathInto(ws, g, weights, s, t)
	return copyEdges(edges), d
}

// ShortestPathInto is ShortestPath on workspace memory: the returned edge
// slice aliases ws and is valid until its next use.
func ShortestPathInto(ws *Workspace, g *graph.Graph, weights []float64, s, t graph.NodeID) ([]graph.EdgeID, float64) {
	if s == t {
		return ws.pathBuf(), 0
	}
	st := &ws.F
	st.Begin(g.NumNodes())
	st.Update(s, 0, -1)
	st.Heap.Push(s, 0)
	dist, parent, stamp, cur := st.dist, st.parent, st.stamp, st.cur
	for st.Heap.Len() > 0 {
		u, du := st.Heap.Pop()
		if stamp[u] == cur+1 {
			continue // stale duplicate; already settled
		}
		if u == t {
			break
		}
		stamp[u] = cur + 1
		adj, heads := g.OutEdges(u), g.OutHeads(u)
		for i, e := range adj {
			v := heads[i]
			nd := du + weights[e]
			if stamp[v] >= cur && nd >= dist[v] {
				continue
			}
			if math.IsInf(nd, 1) {
				continue // +Inf weights are bans; never traverse them
			}
			dist[v] = nd
			parent[v] = e
			if stamp[v] < cur {
				stamp[v] = cur
			}
			st.Heap.Push(v, nd)
		}
	}
	return ws.forwardPath(g, s, t)
}

// potentialMargin scales the potential of PotentialShortestPathInto below
// 1: a potential read from a PHAST tree sums shortcut weights in another
// order than the search's left fold (about 1e-14 apart, relatively), and
// the margin keeps it a strict lower bound at the cost of a few extra pops.
const potentialMargin = 1 - 1e-9

// potentialKey is the heap key of a node reached at distance d whose
// potential is p. The conversion forbids a fused multiply-add, so the
// stale check recomputes the pushed key bit for bit.
func potentialKey(d, p float64) float64 { return d + float64(p*potentialMargin) }

// PotentialShortestPathInto is ShortestPathInto guided toward t by an A*
// potential: pot[v] must be a lower bound on v's distance to t under
// weights, for example the Dist of a Backward tree rooted at t and built
// on a metric that weights never undercut (Penalty's reroutes on the
// tree's own metric: the "perfect potential" of Strasser & Zeitz, 2019). The heap is keyed by
// dist + pot·(1 − 1e-9); a node whose potential is +Inf cannot reach t
// and is never touched. There is no settled stamp: an entry is stale when
// its key no longer matches its node's label, and a node whose label
// improves after it was scanned is scanned again, so exactness rests on
// admissibility alone. It uses the F slot, and the returned edge slice
// aliases ws until its next use. It returns (nil, +Inf) when t is
// unreachable from s.
func PotentialShortestPathInto(ws *Workspace, g *graph.Graph, weights []float64, s, t graph.NodeID, pot []float64) ([]graph.EdgeID, float64) {
	if s == t {
		return ws.pathBuf(), 0
	}
	if math.IsInf(pot[s], 1) {
		return nil, math.Inf(1)
	}
	st := &ws.F
	st.Begin(g.NumNodes())
	st.Update(s, 0, -1)
	st.Heap.Push(s, potentialKey(0, pot[s]))
	dist, parent, stamp, cur := st.dist, st.parent, st.stamp, st.cur
	for st.Heap.Len() > 0 {
		u, key := st.Heap.Pop()
		du := dist[u]
		if key != potentialKey(du, pot[u]) {
			continue // stale: u was relabelled after this entry was pushed
		}
		if u == t {
			break
		}
		adj, heads := g.OutEdges(u), g.OutHeads(u)
		for i, e := range adj {
			v := heads[i]
			nd := du + weights[e]
			if stamp[v] >= cur && nd >= dist[v] {
				continue
			}
			pv := pot[v]
			if math.IsInf(nd, 1) || math.IsInf(pv, 1) {
				continue // a ban, or a node that cannot reach t
			}
			dist[v] = nd
			parent[v] = e
			stamp[v] = cur
			st.Heap.Push(v, potentialKey(nd, pv))
		}
	}
	return ws.forwardPath(g, s, t)
}

// BidirectionalShortestPath computes the shortest s→t path by running
// alternating forward and backward Dijkstra searches that meet in the
// middle. Returns the same result as ShortestPath but typically settles
// far fewer nodes on road networks.
func BidirectionalShortestPath(g *graph.Graph, weights []float64, s, t graph.NodeID) ([]graph.EdgeID, float64) {
	ws := GetWorkspace()
	defer ws.Release()
	edges, d := BidirectionalShortestPathInto(ws, g, weights, s, t)
	return copyEdges(edges), d
}

// BidirectionalShortestPathInto is BidirectionalShortestPath on workspace
// memory (both search slots): the returned edge slice aliases ws and is
// valid until its next use.
func BidirectionalShortestPathInto(ws *Workspace, g *graph.Graph, weights []float64, s, t graph.NodeID) ([]graph.EdgeID, float64) {
	if s == t {
		return ws.pathBuf(), 0
	}
	n := g.NumNodes()
	f, b := &ws.F, &ws.B
	f.Begin(n)
	b.Begin(n)
	f.Update(s, 0, -1)
	f.Heap.Push(s, 0)
	b.Update(t, 0, -1)
	b.Heap.Push(t, 0)

	best := math.Inf(1)
	var meet graph.NodeID = graph.InvalidNode

	distF, parF, stampF, curF := f.dist, f.parent, f.stamp, f.cur
	distB, parB, stampB, curB := b.dist, b.parent, b.stamp, b.cur

	for f.Heap.Len() > 0 || b.Heap.Len() > 0 {
		// Stop when the frontiers can no longer improve the best meeting.
		topF, topB := math.Inf(1), math.Inf(1)
		if f.Heap.Len() > 0 {
			topF = f.Heap.MinPrio()
		}
		if b.Heap.Len() > 0 {
			topB = b.Heap.MinPrio()
		}
		if topF+topB >= best {
			break
		}
		// Expand the smaller frontier.
		if topF <= topB && f.Heap.Len() > 0 {
			u, du := f.Heap.Pop()
			if stampF[u] == curF+1 {
				continue
			}
			stampF[u] = curF + 1
			adj, heads := g.OutEdges(u), g.OutHeads(u)
			for i, e := range adj {
				v := heads[i]
				nd := du + weights[e]
				if stampF[v] >= curF && nd >= distF[v] {
					continue
				}
				if math.IsInf(nd, 1) {
					continue // +Inf weights are bans; never traverse them
				}
				distF[v] = nd
				parF[v] = e
				if stampF[v] < curF {
					stampF[v] = curF
				}
				f.Heap.Push(v, nd)
				if stampB[v] >= curB {
					if d := nd + distB[v]; d < best {
						best = d
						meet = v
					}
				}
			}
		} else if b.Heap.Len() > 0 {
			u, du := b.Heap.Pop()
			if stampB[u] == curB+1 {
				continue
			}
			stampB[u] = curB + 1
			adj, tails := g.InEdges(u), g.InTails(u)
			for i, e := range adj {
				v := tails[i]
				nd := du + weights[e]
				if stampB[v] >= curB && nd >= distB[v] {
					continue
				}
				if math.IsInf(nd, 1) {
					continue // +Inf weights are bans; never traverse them
				}
				distB[v] = nd
				parB[v] = e
				if stampB[v] < curB {
					stampB[v] = curB
				}
				b.Heap.Push(v, nd)
				if stampF[v] >= curF {
					if d := nd + distF[v]; d < best {
						best = d
						meet = v
					}
				}
			}
		}
	}
	if meet == graph.InvalidNode {
		return nil, math.Inf(1)
	}
	// Stitch s→meet from the forward search with meet→t from the backward one.
	edges := ws.pathBuf()
	for cur := meet; cur != s; {
		e := f.parent[cur]
		edges = append(edges, e)
		cur = g.Edge(e).From
	}
	reverse(edges)
	for cur := meet; cur != t; {
		e := b.parent[cur]
		edges = append(edges, e)
		cur = g.Edge(e).To
	}
	ws.path = edges
	return edges, best
}

// AStarShortestPath computes the shortest s→t path using A* with an
// admissible haversine/TopSpeed potential. minSecondsPerMeter must be a
// lower bound on weight/length over all edges (see MinSecondsPerMeter);
// passing 0 disables the heuristic, degrading to plain Dijkstra.
func AStarShortestPath(g *graph.Graph, weights []float64, s, t graph.NodeID, minSecondsPerMeter float64) ([]graph.EdgeID, float64) {
	ws := GetWorkspace()
	defer ws.Release()
	edges, d := AStarShortestPathInto(ws, g, weights, s, t, minSecondsPerMeter)
	return copyEdges(edges), d
}

// AStarShortestPathInto is AStarShortestPath on workspace memory: the
// returned edge slice aliases ws and is valid until its next use.
func AStarShortestPathInto(ws *Workspace, g *graph.Graph, weights []float64, s, t graph.NodeID, minSecondsPerMeter float64) ([]graph.EdgeID, float64) {
	if s == t {
		return ws.pathBuf(), 0
	}
	st := &ws.F
	st.Begin(g.NumNodes())
	target := g.Point(t)
	h := func(v graph.NodeID) float64 {
		return geo.Haversine(g.Point(v), target) * minSecondsPerMeter
	}
	st.Update(s, 0, -1)
	st.Heap.Push(s, h(s))
	dist, parent, stamp, cur := st.dist, st.parent, st.stamp, st.cur
	for st.Heap.Len() > 0 {
		u, _ := st.Heap.Pop()
		if stamp[u] == cur+1 {
			continue // stale duplicate; already settled
		}
		if u == t {
			break
		}
		stamp[u] = cur + 1
		du := dist[u]
		adj, heads := g.OutEdges(u), g.OutHeads(u)
		for i, e := range adj {
			v := heads[i]
			nd := du + weights[e]
			if stamp[v] >= cur && nd >= dist[v] {
				continue
			}
			if math.IsInf(nd, 1) {
				continue // +Inf weights are bans; never traverse them
			}
			dist[v] = nd
			parent[v] = e
			if stamp[v] < cur {
				stamp[v] = cur
			}
			st.Heap.Push(v, nd+h(v))
		}
	}
	return ws.forwardPath(g, s, t)
}

// MinSecondsPerMeter returns the smallest weight/length ratio over all
// edges, the admissible A* potential scale for the given weights. It
// returns 0 for an edgeless graph.
func MinSecondsPerMeter(g *graph.Graph, weights []float64) float64 {
	minRatio := math.Inf(1)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.LengthM <= 0 {
			continue
		}
		if r := weights[e] / ed.LengthM; r < minRatio {
			minRatio = r
		}
	}
	if math.IsInf(minRatio, 1) {
		return 0
	}
	return minRatio
}
