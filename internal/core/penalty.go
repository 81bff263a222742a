package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

// Penalty implements the penalty-based alternative-route technique
// (Akgün et al. 2000; Chen et al. 2007): iteratively compute the shortest
// path, then multiply the weight of every edge on it by the penalty factor
// so the next iteration is steered onto different roads. The iteration
// stops once K distinct routes are collected or the iteration budget is
// exhausted.
//
// Following the paper's configuration, routes are reported with travel
// times under the *original* weights and no upper-bound filter is applied
// unless Options.ApplyUpperBoundToPenalty is set. Each query plans on the
// snapshot of its provider's view and penalizes a pooled working copy of
// it, so the planner follows live traffic without any per-version state
// of its own.
//
// Every iteration is one goal-directed search
// (sp.PotentialShortestPathInto). Its potential is the backward tree of
// the view's tree pair: each node's exact distance to t under the
// snapshot, which penalized weights never undercut, so it is admissible —
// the "perfect potential" of Strasser & Zeitz ("A* with Perfect
// Potentials", 2019), a tighter form of ALT (Goldberg & Harrelson, SODA
// 2005). Under the engine that pair is the one Plateaus and Dissimilarity
// already share (a Penalty built alone builds its own), and the reroutes
// touch a small fraction of the nodes a Dijkstra search would.
type Penalty struct {
	versioned
	g    *graph.Graph
	opts Options
}

// NewPenalty returns a Penalty planner over g planning on Options.Weights
// (nil pins the graph's base travel-time weights). Its provider builds
// tree pairs on Options.TreeBackend: the backward tree is the search
// potential.
func NewPenalty(g *graph.Graph, opts Options) *Penalty {
	o := opts.withDefaults()
	return &Penalty{versioned: versioned{newProvider(g, o.Weights, true, o, "Penalty")}, g: g, opts: o}
}

// Name implements Planner.
func (p *Penalty) Name() string { return "Penalty" }

// Alternatives implements Planner.
func (p *Penalty) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(p, s, t)
}

func (p *Penalty) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(p.g, s, t); err != nil {
		return nil, err
	}
	base := v.snap.Weights()
	if s == t {
		return trivialQuery(p.g, base, s), nil
	}
	wp := penaltyWorkPool.Get().(*[]float64)
	defer penaltyWorkPool.Put(wp)
	*wp = grow(*wp, len(base))
	work := (*wp)[:len(base)]
	copy(work, base)
	ws := sp.GetWorkspace()
	defer ws.Release()
	// The backward tree is the potential of every iteration's search. It
	// lives in the tree slot the search leaves alone (or in the shared
	// pair's own workspace) and is only read.
	_, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ErrNoRoute
	}

	// The iteration budget bounds the search when penalised reroutes keep
	// rediscovering known paths; 4·K+4 is generous for road networks.
	maxIterations := 4*p.opts.K + 4
	routes := make([]path.Path, 0, p.opts.K)
	var fastest float64
	for iter := 0; iter < maxIterations && len(routes) < p.opts.K; iter++ {
		// The returned edge slice aliases the workspace and stays valid
		// until the next search; admitted routes copy it below.
		edges, _ := sp.PotentialShortestPathInto(ws, p.g, work, s, t, bwd.Dist)
		if edges == nil {
			break
		}
		// A rediscovered route is one admit would refuse as a duplicate;
		// it costs no path. A new one is evaluated and reported under the
		// original weights.
		if !admit(p.g, path.Path{Edges: edges}, routes, 0) {
			p.penalize(work, edges)
			continue
		}
		cand := path.MustNew(p.g, base, s, edges)
		if iter == 0 {
			fastest = cand.TimeS
		}
		ok := admit(p.g, cand, routes, p.opts.SimilarityCutoff)
		if ok && p.opts.ApplyUpperBoundToPenalty && fastest > 0 &&
			cand.TimeS > p.opts.UpperBound*fastest {
			ok = false
		}
		if ok && !admitLocalOpt(p.g, base, cand, fastest, p.opts) {
			ok = false
		}
		if ok {
			cand.Edges = append([]graph.EdgeID(nil), edges...)
			routes = append(routes, cand)
		}
		// Penalize the found path's edges (both directions of each road
		// segment) so the next iteration prefers different streets.
		p.penalize(work, edges)
	}
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// penaltyWorkPool pools the per-query working copy of the weights. It is
// package-level for the reason given at selBufPool: a pool inside the
// planner would keep it reachable through the runtime's registry of pools.
var penaltyWorkPool = sync.Pool{New: func() any { return new([]float64) }}

func (p *Penalty) penalize(work []float64, edges []graph.EdgeID) {
	for _, e := range edges {
		work[e] *= p.opts.PenaltyFactor
		ed := p.g.Edge(e)
		if rev := p.g.FindEdge(ed.To, ed.From); rev >= 0 {
			work[rev] *= p.opts.PenaltyFactor
		}
	}
}
