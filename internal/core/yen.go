package core

import (
	"container/heap"
	"math"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

// Yen implements Yen's classic k-shortest loopless paths algorithm
// (Management Science, 1971). The paper's related-work section uses it as
// the cautionary baseline: the k shortest paths of a road network are
// nearly identical to each other, so Yen applied trivially does not
// produce useful alternatives. It is included to reproduce that
// observation (its route sets score far higher Sim(T) than any of the
// four studied techniques) and as a correctness oracle in tests.
type Yen struct {
	versioned
	g    *graph.Graph
	opts Options
}

// NewYen returns a Yen planner over g planning on Options.Weights (nil
// pins the graph's base travel-time weights).
func NewYen(g *graph.Graph, opts Options) *Yen {
	o := opts.withDefaults()
	return &Yen{versioned: versioned{newProvider(g, o.Weights, false, o, "Yen")}, g: g, opts: o}
}

// Name implements Planner.
func (y *Yen) Name() string { return "Yen" }

// candidateHeap orders candidate paths by travel time.
type candidateHeap []path.Path

func (h candidateHeap) Len() int           { return len(h) }
func (h candidateHeap) Less(i, j int) bool { return h[i].TimeS < h[j].TimeS }
func (h candidateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x any)        { *h = append(*h, x.(path.Path)) }
func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Alternatives implements Planner. It returns the K shortest loopless
// paths in ascending travel-time order.
func (y *Yen) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(y, s, t)
}

func (y *Yen) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	base := v.snap.Weights()
	if err := validateQuery(y.g, s, t); err != nil {
		return nil, err
	}
	if s == t {
		return trivialQuery(y.g, base, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	first, d := sp.ShortestPathInto(ws, y.g, base, s, t)
	if first == nil || math.IsInf(d, 1) {
		return nil, ErrNoRoute
	}
	result := []path.Path{path.MustNew(y.g, base, s, append([]graph.EdgeID(nil), first...))}
	cands := &candidateHeap{}

	for len(result) < y.opts.K {
		prev := result[len(result)-1]
		// Spur from every node of the previous path except the target.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootEdges := prev.Edges[:i]

			// Ban edges that would recreate a known path with this root,
			// and ban revisiting root nodes, by inflating weights.
			work := make([]float64, len(base))
			copy(work, base)
			for _, r := range result {
				if len(r.Edges) > i && sharesPrefix(r.Edges, rootEdges, i) {
					work[r.Edges[i]] = math.Inf(1)
				}
			}
			blocked := make(map[graph.NodeID]bool, i)
			for _, v := range prev.Nodes[:i] {
				blocked[v] = true
			}
			for v := range blocked {
				for _, e := range y.g.OutEdges(v) {
					work[e] = math.Inf(1)
				}
				for _, e := range y.g.InEdges(v) {
					work[e] = math.Inf(1)
				}
			}

			spurEdges, spurCost := sp.ShortestPathInto(ws, y.g, work, spurNode, t)
			if spurEdges == nil || math.IsInf(spurCost, 1) {
				continue
			}
			total := make([]graph.EdgeID, 0, i+len(spurEdges))
			total = append(total, rootEdges...)
			total = append(total, spurEdges...)
			cand, err := path.New(y.g, base, s, total)
			if err != nil || math.IsInf(cand.TimeS, 1) {
				continue
			}
			known := false
			for _, r := range result {
				if path.Equal(cand, r) {
					known = true
					break
				}
			}
			if !known {
				heap.Push(cands, cand)
			}
		}
		// Pop the best unseen candidate.
		var next path.Path
		found := false
		for cands.Len() > 0 {
			c := heap.Pop(cands).(path.Path)
			dup := false
			for _, r := range result {
				if path.Equal(c, r) {
					dup = true
					break
				}
			}
			if !dup {
				next, found = c, true
				break
			}
		}
		if !found {
			break
		}
		result = append(result, next)
	}
	return result, nil
}

func sharesPrefix(edges, prefix []graph.EdgeID, n int) bool {
	if len(edges) < n || len(prefix) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if edges[i] != prefix[i] {
			return false
		}
	}
	return true
}
