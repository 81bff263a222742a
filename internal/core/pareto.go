package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/path"
)

// Pareto implements the skyline-paths baseline of §II-D (Barth & Funke;
// Barth, Funke & Storandt): report s-t paths that are Pareto-optimal with
// respect to two criteria — travel time and geometric distance. A path is
// dominated if another path is at least as good in both criteria and
// strictly better in one; the skyline is the set of non-dominated paths.
//
// The search is a bicriteria label-setting algorithm: each node keeps a
// Pareto frontier of (time, distance) labels with parent pointers; labels
// dominated at their node are pruned, and labels whose travel time already
// exceeds UpperBound × the fastest time are cut (alternative routes beyond
// the bound are never reported anyway, and the bound keeps the otherwise
// exponential frontier small). A per-node label cap bounds worst-case
// memory on adversarial graphs.
type Pareto struct {
	versioned
	g    *graph.Graph
	opts Options
	// maxLabelsPerNode caps each node's frontier; the skyline of real road
	// networks is narrow, so 32 is generous.
	maxLabelsPerNode int
}

// NewPareto returns a Pareto (skyline) planner over g using travel time
// and distance as the two criteria.
func NewPareto(g *graph.Graph, opts Options) *Pareto {
	o := opts.withDefaults()
	return &Pareto{versioned: versioned{newProvider(g, o.Weights, false, o, "Pareto")}, g: g, opts: o, maxLabelsPerNode: 32}
}

// Name implements Planner.
func (p *Pareto) Name() string { return "Pareto" }

// label is one partial path in the bicriteria search.
type label struct {
	node   graph.NodeID
	timeS  float64
	distM  float64
	parent int          // index into the label arena; -1 at the source
	via    graph.EdgeID // edge that produced this label
}

// dominates reports whether (t1, d1) weakly dominates (t2, d2) with at
// least one strict improvement.
func dominates(t1, d1, t2, d2 float64) bool {
	if t1 > t2 || d1 > d2 {
		return false
	}
	return t1 < t2 || d1 < d2
}

// labelHeap orders open labels lexicographically by time then distance.
type labelHeap struct {
	idx   []int // arena indices
	arena *[]label
}

func (h *labelHeap) less(a, b int) bool {
	la, lb := (*h.arena)[h.idx[a]], (*h.arena)[h.idx[b]]
	if la.timeS != lb.timeS {
		return la.timeS < lb.timeS
	}
	return la.distM < lb.distM
}

func (h *labelHeap) push(i int) {
	h.idx = append(h.idx, i)
	c := len(h.idx) - 1
	for c > 0 {
		parent := (c - 1) / 2
		if !h.less(c, parent) {
			break
		}
		h.idx[c], h.idx[parent] = h.idx[parent], h.idx[c]
		c = parent
	}
}

func (h *labelHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		smallest := c
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == c {
			break
		}
		h.idx[c], h.idx[smallest] = h.idx[smallest], h.idx[c]
		c = smallest
	}
	return top
}

// Alternatives implements Planner: it returns up to K skyline paths in
// ascending travel-time order (the fastest path is always the first).
func (p *Pareto) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(p, s, t)
}

func (p *Pareto) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	base := v.snap.Weights()
	if err := validateQuery(p.g, s, t); err != nil {
		return nil, err
	}
	if s == t {
		return trivialQuery(p.g, base, s), nil
	}
	skyline := p.skyline(base, s, t)
	if len(skyline) == 0 {
		return nil, ErrNoRoute
	}
	if len(skyline) > p.opts.K {
		skyline = skyline[:p.opts.K]
	}
	return skyline, nil
}

// Skyline returns the full Pareto frontier of s-t paths within the travel
// time upper bound, in ascending travel-time (descending distance) order,
// under the current weight snapshot.
func (p *Pareto) Skyline(s, t graph.NodeID) []path.Path {
	return p.skyline(p.prov.view().snap.Weights(), s, t)
}

func (p *Pareto) skyline(base []float64, s, t graph.NodeID) []path.Path {
	arena := make([]label, 0, 1024)
	frontier := make(map[graph.NodeID][]int) // node -> arena indices of non-dominated labels
	h := &labelHeap{arena: &arena}

	arena = append(arena, label{node: s, parent: -1, via: -1})
	frontier[s] = []int{0}
	h.push(0)

	// First pass bound: the fastest time to t is discovered during the
	// search itself (labels pop in time order), so the UB prune activates
	// as soon as the first label reaches t.
	bestT := -1.0
	var results []int

	for len(h.idx) > 0 {
		li := h.pop()
		lab := arena[li]
		if bestT > 0 && lab.timeS > p.opts.UpperBound*bestT+1e-9 {
			break // all remaining labels are beyond the bound
		}
		if stale(frontier[lab.node], arena, li, lab) {
			continue
		}
		if lab.node == t {
			if bestT < 0 {
				bestT = lab.timeS
			}
			results = append(results, li)
			continue
		}
		for _, e := range p.g.OutEdges(lab.node) {
			ed := p.g.Edge(e)
			nt := lab.timeS + base[e]
			nd := lab.distM + ed.LengthM
			if bestT > 0 && nt > p.opts.UpperBound*bestT+1e-9 {
				continue
			}
			if !p.insert(frontier, &arena, ed.To, nt, nd, li, e) {
				continue
			}
			h.push(len(arena) - 1)
		}
	}

	// Reconstruct, dropping results that became dominated by later-found
	// target labels (cannot happen with time-ordered pops, but keep the
	// check cheap and defensive) and paths with repeated nodes.
	out := make([]path.Path, 0, len(results))
	for _, li := range results {
		edges := reconstruct(arena, li)
		cand, err := path.New(p.g, base, s, edges)
		if err != nil {
			continue
		}
		if hasRepeatedNode(cand) {
			continue
		}
		out = append(out, cand)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeS < out[j].TimeS })
	// Post-filter exact-tie dominance (a later equal-time label can slip
	// into results before the tie is resolved at the frontier).
	kept := out[:0]
	for _, cand := range out {
		dominated := false
		for _, k := range kept {
			if dominates(k.TimeS, k.LengthM, cand.TimeS, cand.LengthM) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, cand)
		}
	}
	return kept
}

// insert adds a candidate label to node's frontier unless dominated; it
// also evicts labels the newcomer dominates. Returns false if rejected.
func (p *Pareto) insert(frontier map[graph.NodeID][]int, arena *[]label, node graph.NodeID, nt, nd float64, parent int, via graph.EdgeID) bool {
	cur := frontier[node]
	kept := cur[:0]
	for _, i := range cur {
		l := (*arena)[i]
		if dominates(l.timeS, l.distM, nt, nd) || (l.timeS == nt && l.distM == nd) {
			return false
		}
		if !dominates(nt, nd, l.timeS, l.distM) {
			kept = append(kept, i)
		}
	}
	if len(kept) >= p.maxLabelsPerNode {
		frontier[node] = kept
		return false
	}
	*arena = append(*arena, label{node: node, timeS: nt, distM: nd, parent: parent, via: via})
	frontier[node] = append(kept, len(*arena)-1)
	return true
}

// stale reports whether the popped label has been evicted from its node's
// frontier (superseded by a dominating label pushed later).
func stale(front []int, arena []label, li int, lab label) bool {
	for _, i := range front {
		if i == li {
			return false
		}
	}
	// Not in frontier anymore: it was dominated after being pushed.
	_ = arena
	_ = lab
	return true
}

func reconstruct(arena []label, li int) []graph.EdgeID {
	var edges []graph.EdgeID
	for cur := li; arena[cur].parent >= 0; cur = arena[cur].parent {
		edges = append(edges, arena[cur].via)
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

func hasRepeatedNode(p path.Path) bool {
	seen := make(map[graph.NodeID]bool, len(p.Nodes))
	for _, v := range p.Nodes {
		if seen[v] {
			return true
		}
		seen[v] = true
	}
	return false
}
