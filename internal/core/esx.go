package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

// ESX implements the edge-exclusion heuristic for k-shortest paths with
// limited overlap from the Dissimilarity family (Chondrogiannis et al.,
// "Alternative routing: k-shortest paths with limited overlap" and the
// VLDB J. follow-up). Starting from the fastest path, each round searches
// for the next path whose similarity to every selected path is below θ by
// repeatedly excluding edges of the current shortest path that overlap the
// selected set — longest shared segments first — and re-running Dijkstra
// until the result is sufficiently dissimilar or the exclusion budget is
// exhausted.
//
// Compared with the study's SSVP-D+ (see Dissimilarity), ESX explores a
// different trade-off: it needs no backward tree but pays one Dijkstra per
// exclusion step. It is included as a §II-D related-work baseline and for
// the ablation benchmarks.
type ESX struct {
	versioned
	g    *graph.Graph
	opts Options
	// maxExclusionsPerRound bounds the Dijkstra re-runs per result path.
	maxExclusionsPerRound int
}

// NewESX returns an ESX planner over g planning on Options.Weights (nil
// pins the graph's base travel-time weights).
func NewESX(g *graph.Graph, opts Options) *ESX {
	o := opts.withDefaults()
	return &ESX{versioned: versioned{newProvider(g, o.Weights, false, o, "ESX")}, g: g, opts: o, maxExclusionsPerRound: 24}
}

// Name implements Planner.
func (x *ESX) Name() string { return "ESX" }

// Alternatives implements Planner.
func (x *ESX) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(x, s, t)
}

func (x *ESX) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	base := v.snap.Weights()
	if err := validateQuery(x.g, s, t); err != nil {
		return nil, err
	}
	if s == t {
		return trivialQuery(x.g, base, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	first, d := sp.ShortestPathInto(ws, x.g, base, s, t)
	if first == nil || math.IsInf(d, 1) {
		return nil, ErrNoRoute
	}
	routes := []path.Path{path.MustNew(x.g, base, s, append([]graph.EdgeID(nil), first...))}
	fastest := routes[0].TimeS

	excluded := make(map[graph.EdgeID]bool)
	for len(routes) < x.opts.K {
		next, ok := x.nextDissimilar(ws, base, s, t, routes, fastest, excluded)
		if !ok {
			break
		}
		routes = append(routes, next)
	}
	return routes, nil
}

// nextDissimilar runs the exclusion loop for one result path. The
// exclusion set persists across rounds (as in ESX) so progress is not
// re-derived from scratch for every k.
func (x *ESX) nextDissimilar(ws *sp.Workspace, base []float64, s, t graph.NodeID, selected []path.Path, fastest float64, excluded map[graph.EdgeID]bool) (path.Path, bool) {
	work := make([]float64, len(base))
	rebuild := func() {
		copy(work, base)
		for e := range excluded {
			work[e] = math.Inf(1)
		}
	}
	rebuild()
	for iter := 0; iter < x.maxExclusionsPerRound; iter++ {
		edges, d := sp.ShortestPathInto(ws, x.g, work, s, t)
		if edges == nil || math.IsInf(d, 1) {
			return path.Path{}, false
		}
		cand := path.MustNew(x.g, base, s, edges)
		if cand.TimeS > x.opts.UpperBound*fastest+1e-9 {
			return path.Path{}, false // already beyond the bound; giving up
		}
		if path.UnionShare(x.g, cand, selected) < 1-x.opts.Theta &&
			admit(x.g, cand, selected, x.opts.SimilarityCutoff) {
			cand.Edges = append([]graph.EdgeID(nil), edges...)
			return cand, true
		}
		// Exclude the longest candidate edges that overlap the selected
		// set, pushing the next Dijkstra off the shared corridor.
		shared := x.sharedEdges(cand, selected)
		if len(shared) == 0 {
			// Overlap came entirely from previously excluded edges'
			// parallels; exclude the candidate's longest edge instead.
			shared = cand.Edges
		}
		sort.Slice(shared, func(i, j int) bool {
			return x.g.Edge(shared[i]).LengthM > x.g.Edge(shared[j]).LengthM
		})
		takes := 2
		for _, e := range shared {
			if takes == 0 {
				break
			}
			if !excluded[e] {
				excluded[e] = true
				work[e] = math.Inf(1)
				takes--
			}
		}
		if takes == 2 {
			return path.Path{}, false // nothing left to exclude
		}
	}
	return path.Path{}, false
}

// sharedEdges returns the candidate's edges that run on road segments used
// by any selected path.
func (x *ESX) sharedEdges(cand path.Path, selected []path.Path) []graph.EdgeID {
	used := make(map[[2]graph.NodeID]bool)
	for i := range selected {
		for _, e := range selected[i].Edges {
			ed := x.g.Edge(e)
			a, b := ed.From, ed.To
			if a > b {
				a, b = b, a
			}
			used[[2]graph.NodeID{a, b}] = true
		}
	}
	var out []graph.EdgeID
	for _, e := range cand.Edges {
		ed := x.g.Edge(e)
		a, b := ed.From, ed.To
		if a > b {
			a, b = b, a
		}
		if used[[2]graph.NodeID{a, b}] {
			out = append(out, e)
		}
	}
	return out
}
