package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Dissimilarity implements the SSVP-D+ technique of Chondrogiannis et al.
// ("Finding k-dissimilar paths with minimum collective length", SIGSPATIAL
// 2018): generate candidate routes through via-nodes — the concatenation
// sp(s,u)+sp(u,t) for a via-node u — consider them in ascending order of
// their total travel time, and admit a candidate only if its similarity to
// every already-selected route is below the threshold θ. The fastest path
// (via-node = any node on it) is always selected first, so the result is a
// set of short routes that are pairwise dissimilar by construction.
//
// Both shortest-path trees are built once per query; every via-path is
// assembled from tree pointers, which keeps the approximation fast enough
// for interactive use (the exact problem is NP-hard). Each query plans on
// the snapshot of its provider's view, so the planner follows live
// traffic without per-version state of its own.
type Dissimilarity struct {
	versioned
	g    *graph.Graph
	opts Options
}

// NewDissimilarity returns a Dissimilarity planner over g planning on
// Options.Weights (nil pins the graph's base travel-time weights).
func NewDissimilarity(g *graph.Graph, opts Options) *Dissimilarity {
	o := opts.withDefaults()
	return &Dissimilarity{versioned: versioned{newProvider(g, o.Weights, false, false, o)}, g: g, opts: o}
}

// Name implements Planner.
func (d *Dissimilarity) Name() string { return "Dissimilarity" }

// Alternatives implements Planner.
func (d *Dissimilarity) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	routes, _, err := answer(d, s, t)
	return routes, err
}

// AlternativesVersioned implements VersionedPlanner.
func (d *Dissimilarity) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	return answer(d, s, t)
}

func (d *Dissimilarity) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(d.g, s, t); err != nil {
		return nil, err
	}
	base := v.snap.Weights()
	if s == t {
		return trivialQuery(d.g, base, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd := sp.BuildTreeInto(ws, d.g, base, s, sp.Forward)
	if !fwd.Reached(t) {
		return nil, ErrNoRoute
	}
	bwd := sp.BuildTreeInto(ws, d.g, base, t, sp.Backward)
	fastest := fwd.Dist[t]
	bound := d.opts.UpperBound * fastest

	// Candidate via-nodes: every node whose via-path meets the upper
	// bound, in ascending via-path cost order. The target itself yields
	// the fastest path and sorts first (cost == fastest).
	type viaCand struct {
		node graph.NodeID
		cost float64
	}
	cands := make([]viaCand, 0, 256)
	for v := graph.NodeID(0); int(v) < d.g.NumNodes(); v++ {
		if !fwd.Reached(v) || !bwd.Reached(v) {
			continue
		}
		c := fwd.Dist[v] + bwd.Dist[v]
		if c <= bound+1e-9 {
			cands = append(cands, viaCand{v, c})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].node < cands[j].node
	})

	// onSelected marks nodes interior to already-selected routes; via-nodes
	// on a selected route regenerate (a superpath of) that route, so they
	// are skipped cheaply — the "+" pruning of SSVP-D+.
	onSelected := make([]bool, d.g.NumNodes())

	var routes []path.Path
	for _, c := range cands {
		if len(routes) >= d.opts.K {
			break
		}
		if onSelected[c.node] {
			continue
		}
		cand, ok := d.viaPath(base, fwd, bwd, s, c.node)
		if !ok {
			continue
		}
		// Admission: dis(p, P) > θ, with dis = 1 − (fraction of p running
		// on roads already used by P). Equivalently the candidate must be
		// more than θ new road. This also bounds every pairwise Eq. (1)
		// similarity below θ.
		if path.UnionShare(d.g, cand, routes) >= 1-d.opts.Theta {
			continue
		}
		if !admit(d.g, cand, routes, d.opts.SimilarityCutoff) {
			continue
		}
		if !admitLocalOpt(d.g, base, cand, fastest, d.opts) {
			continue
		}
		routes = append(routes, cand)
		for _, v := range cand.Nodes {
			onSelected[v] = true
		}
	}
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// viaPath assembles sp(s,u) + sp(u,t) from the two trees. Via-paths that
// revisit a node (the two halves overlap) are rejected as malformed
// candidates, mirroring SSVP's simple-path requirement.
func (d *Dissimilarity) viaPath(base []float64, fwd, bwd *sp.Tree, s, u graph.NodeID) (path.Path, bool) {
	head := fwd.PathTo(d.g, u)
	if head == nil && u != s {
		return path.Path{}, false
	}
	tail := bwd.PathTo(d.g, u)
	if tail == nil && u != bwd.Root {
		return path.Path{}, false
	}
	edges := make([]graph.EdgeID, 0, len(head)+len(tail))
	edges = append(edges, head...)
	edges = append(edges, tail...)
	cand, err := path.New(d.g, base, s, edges)
	if err != nil {
		return path.Path{}, false
	}
	seen := make(map[graph.NodeID]bool, len(cand.Nodes))
	for _, v := range cand.Nodes {
		if seen[v] {
			return path.Path{}, false
		}
		seen[v] = true
	}
	return cand, true
}
