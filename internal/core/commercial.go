package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Commercial simulates the commercial navigation provider of the study
// (Google Maps). The real provider could not be reproduced: its routing
// data is proprietary real-time/historical traffic, and it cannot be
// forced to run on OpenStreetMap data (paper footnote 1). This stand-in
// preserves the two properties the study identifies as the provider's
// distinguishing behaviour:
//
//  1. It plans on *different underlying data* — a private traffic-aware
//     weight metric (see the traffic package) rather than the public
//     OSM-derived weights. Its routes are optimal under its own data but
//     may look like detours when judged under OSM data, recreating the
//     Fig. 4 confound. Under live serving that private metric is a
//     versioned store: every query resolves the provider's current
//     traffic snapshot, exactly the "route rankings flip as traffic
//     changes" behaviour the paper could only observe from outside.
//  2. It applies extra ranking criteria beyond travel time — fewer turns
//     and wider roads — the refinements §IV-C speculates a commercial
//     product would have engineered.
//
// Internally it generates a large candidate pool with the plateau method
// on its private weights, scores candidates by private travel time
// inflated by turn-count and narrow-road penalties, greedily picks a
// diverse top-K, and finally reports travel times under the public
// weights, exactly as the paper's query processor timed Google's routes
// with OSM data.
//
// Like every tree planner, it builds full Dijkstra trees by default, and
// Options.TreeBackend == TreeCHAuto switches to trees swept out of a
// customizable contraction hierarchy over the private weights
// (re-customized in the background as traffic versions are published).
//
// Its provider, and so its WeightsVersion, follows the *private* traffic
// metric — the one that changes under live serving.
type Commercial struct {
	versioned // private-metric snapshots + per-version trees
	g         *graph.Graph
	public    []float64 // OSM-derived weights used for reported travel times
	opts      Options
	// ranking criteria weights
	turnPenalty   float64 // fractional cost increase per significant turn
	narrowPenalty float64 // fractional cost increase for single-lane average
	maxPairwise   float64 // candidate diversity cutoff
	diversityBias float64 // score inflation per unit of overlap with picks
	poolSize      int     // plateau candidates considered before ranking
}

// NewCommercial returns the simulated commercial provider. The private
// metric it plans on comes from Options.Weights (a live store or pinned
// snapshot); when that is nil, private must hold one weight per edge (the
// provider's own view of travel times, typically produced by
// traffic.Apply) and is pinned.
func NewCommercial(g *graph.Graph, private []float64, opts Options) *Commercial {
	opts = opts.withDefaults()
	src := opts.Weights
	if src == nil {
		src = weights.Pin(private)
	}
	c := &Commercial{
		g:             g,
		public:        g.BaseWeights(),
		opts:          opts,
		turnPenalty:   0.015,
		narrowPenalty: 0.10,
		maxPairwise:   0.80,
		diversityBias: 0.45,
		poolSize:      16,
	}
	c.prov = newProvider(g, src, true, opts, c.Name())
	return c
}

// Name implements Planner.
func (c *Commercial) Name() string { return "GMaps" }

// HierarchyStatus reports the hierarchy flavor serving this planner, its
// last customization latency and its sweep counters (zero off
// TreeCHAuto).
func (c *Commercial) HierarchyStatus() HierarchyStatus { return c.prov.hierarchyStatus() }

// Alternatives implements Planner.
func (c *Commercial) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(c, s, t)
}

func (c *Commercial) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(c.g, s, t); err != nil {
		return nil, err
	}
	private := v.snap.Weights()
	if s == t {
		return trivialQuery(c.g, c.public, s), nil
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ErrNoRoute
	}
	fastestPrivate := fwd.Dist[t]

	// Candidate pool: plateau routes under the provider's private data.
	sc := getPlateauScratch()
	defer putPlateauScratch(sc)
	plateaus := findPlateausInto(sc, c.g, private, fwd, bwd)
	sortPlateaus(plateaus)

	type scored struct {
		p     path.Path // timed under private weights during selection
		score float64
		sim   float64 // largest Jaccard similarity to a selected route
	}
	var pool []scored
	buf := ws.PathBuf()
	for _, pl := range plateaus {
		if len(pool) >= c.poolSize {
			break
		}
		if pl.RouteCostS > c.opts.UpperBound*fastestPrivate+1e-9 {
			continue
		}
		var cand path.Path
		buf, cand, ok = assemblePlateauRoute(buf, c.g, private, fwd, bwd, pl)
		if !ok {
			continue
		}
		dup := false
		for i := range pool {
			if path.Equal(cand, pool[i].p) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// The pool outlives the assembly buffer; own the edges.
		cand.Edges = append([]graph.EdgeID(nil), cand.Edges...)
		pool = append(pool, scored{p: cand, score: c.score(cand)})
	}
	ws.KeepPathBuf(buf)
	if len(pool) == 0 {
		return nil, ErrNoRoute
	}
	// The provider's best route (its fastest) always comes first; the rest
	// of the pool is re-ranked by the engineered goodness score.
	sort.SliceStable(pool[1:], func(i, j int) bool {
		return pool[1+i].score < pool[1+j].score
	})

	// Greedy diverse selection: the provider's fastest route first, then
	// repeatedly the candidate with the best similarity-inflated score —
	// overlap with already-picked routes makes a candidate less
	// attractive, and near-duplicates (above the pairwise cutoff) are
	// excluded outright. The selected set only grows, so a candidate's
	// largest similarity to it is kept running and compared only against
	// the latest pick.
	seg := segPool.Get().(*segScratch)
	defer segPool.Put(seg)
	selected := []path.Path{pool[0].p}
	remaining := pool[1:]
	for last := pool[0].p; len(selected) < c.opts.K; {
		seg.setRoute(c.g, last)
		bestIdx := -1
		bestEff := math.Inf(1)
		for i := range remaining {
			r := &remaining[i]
			if r.p.Edges == nil {
				continue
			}
			if sim := seg.jaccard(c.g, r.p); sim > r.sim {
				r.sim = sim
			}
			if r.sim > c.maxPairwise {
				continue
			}
			if eff := r.score * (1 + c.diversityBias*r.sim); eff < bestEff {
				bestEff, bestIdx = eff, i
			}
		}
		if bestIdx < 0 {
			break
		}
		last = remaining[bestIdx].p
		selected = append(selected, last)
		remaining[bestIdx].p.Edges = nil // consumed
	}
	// Report with public (OSM) travel times, as the study's query
	// processor does for every approach.
	out := make([]path.Path, len(selected))
	for i, p := range selected {
		out[i] = path.MustNew(c.g, c.public, s, p.Edges)
	}
	return out, nil
}

// segScratch is the reusable state of Commercial's similarity checks:
// path.Jaccard against one route, with path.Overlap's map of road
// segments replaced by epoch-stamped edges — a segment is a node pair,
// either direction, parallel edges included, as dissimScratch.markSegment
// stamps it. Pooled at package level for the reason given at selBufPool.
type segScratch struct {
	// mark[e].epoch == epoch: e's segment lies on the path being compared,
	// whose first edge on it is mark[e].lenM long.
	mark  []segMark
	epoch uint32
	// routeM is the length of the route compared against; first holds its
	// first edge on each of its segments, in route order.
	routeM float64
	first  []graph.EdgeID
}

type segMark struct {
	epoch uint32
	lenM  float64
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

// nextEpoch opens a fresh epoch over g's edges.
func (sc *segScratch) nextEpoch(g *graph.Graph) {
	sc.mark = grow(sc.mark, g.NumEdges())
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
}

// stamp marks every edge of e's segment with lenM unless the segment is
// marked already, and reports whether it was not.
func (sc *segScratch) stamp(g *graph.Graph, e graph.EdgeID, lenM float64) bool {
	if sc.mark[e].epoch == sc.epoch {
		return false
	}
	ed := g.Edge(e)
	sc.markSegment(g, ed.From, ed.To, lenM)
	sc.markSegment(g, ed.To, ed.From, lenM)
	return true
}

// markSegment stamps every edge u→v.
func (sc *segScratch) markSegment(g *graph.Graph, u, v graph.NodeID, lenM float64) {
	heads := g.OutHeads(u)
	for i, e := range g.OutEdges(u) {
		if heads[i] == v {
			sc.mark[e] = segMark{sc.epoch, lenM}
		}
	}
}

// setRoute makes b the route later jaccard calls compare against.
func (sc *segScratch) setRoute(g *graph.Graph, b path.Path) {
	sc.nextEpoch(g)
	sc.routeM = b.LengthM
	sc.first = sc.first[:0]
	for _, e := range b.Edges {
		if sc.stamp(g, e, 0) {
			sc.first = append(sc.first, e)
		}
	}
}

// jaccard returns path.Jaccard(g, a, route) bit for bit: a's segments are
// stamped with the length of a's first edge on each, the intersection is
// summed over the route's first edges in route order, as path.Overlap
// sums it, and the two lengths are the paths' LengthM — path.New's sums in
// edge order, which are Overlap's.
func (sc *segScratch) jaccard(g *graph.Graph, a path.Path) float64 {
	sc.nextEpoch(g)
	for _, e := range a.Edges {
		sc.stamp(g, e, g.Edge(e).LengthM)
	}
	var inter float64
	for _, e := range sc.first {
		if m := sc.mark[e]; m.epoch == sc.epoch {
			inter += m.lenM
		}
	}
	union := a.LengthM + sc.routeM - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// score is the provider's goodness function: private travel time inflated
// by zig-zag and narrow-road penalties.
func (c *Commercial) score(p path.Path) float64 {
	turns := float64(path.TurnCount(c.g, p, 45))
	lanes := path.MeanLanes(c.g, p)
	narrow := 0.0
	if lanes > 0 {
		narrow = c.narrowPenalty / lanes
	}
	return p.TimeS * (1 + c.turnPenalty*turns) * (1 + narrow)
}
