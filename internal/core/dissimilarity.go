package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
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
// Both shortest-path trees come from the provider's TreeSource, like
// Plateaus' (full Dijkstra trees, or CCH sweeps under TreeCHAuto; the
// planners of NewStudyPlanners share one provider, and through an Engine
// one request's Plateaus, Dissimilarity and Penalty share the tree pair
// itself — see Engine.Alternatives). Via-nodes within the upper bound are
// heapified on (cost, node) and popped lazily until K routes are admitted,
// so most are never looked at. A popped candidate's share of selected road — the
// edges on a selected route's road segments, either direction, parallel
// edges included, are epoch-stamped — is folded in path.UnionShare's
// order from a memoized forward-tree prefix plus its backward half, so
// the verdict is bit-identical to UnionShare's. Only a candidate under
// the threshold is assembled in the workspace's path buffer, checked for
// simplicity against stamped node marks, and turned into a path.Path for
// the remaining admission checks. Every node of a plateau chain has the
// same via-path, and a rejection only grows more certain as routes are
// selected, so a rejected candidate's chain is stamped and never
// evaluated again. Each query plans on the snapshot of its provider's
// view, so the planner follows live traffic without per-version state of
// its own.
type Dissimilarity struct {
	versioned
	g    *graph.Graph
	opts Options
}

// NewDissimilarity returns a Dissimilarity planner over g planning on
// Options.Weights (nil pins the graph's base travel-time weights).
func NewDissimilarity(g *graph.Graph, opts Options) *Dissimilarity {
	o := opts.withDefaults()
	return &Dissimilarity{versioned: versioned{newProvider(g, o.Weights, true, o, "Dissimilarity")}, g: g, opts: o}
}

// Name implements Planner.
func (d *Dissimilarity) Name() string { return "Dissimilarity" }

// Alternatives implements Planner.
func (d *Dissimilarity) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
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
	fwd, bwd, ok := v.trees.BuildTrees(ws, s, t)
	if !ok {
		return nil, ErrNoRoute
	}
	fastest := fwd.Dist[t]

	sc := dissimPool.Get().(*dissimScratch)
	defer dissimPool.Put(sc)
	// Candidate via-nodes: every node whose via-path meets the upper bound.
	// The target itself yields the fastest path (cost == fastest).
	sc.collect(d.g, fwd, bwd, d.opts.UpperBound*fastest+1e-9)

	routes := make([]path.Path, 0, d.opts.K)
	buf := ws.PathBuf()
	for len(routes) < d.opts.K && len(sc.heap) > 0 {
		u := sc.pop()
		// Skipped: nodes of selected routes, whose via-paths regenerate (a
		// superpath of) that route — the "+" pruning of SSVP-D+ — and nodes
		// sharing an already rejected via-path.
		if sc.skip[u] == sc.query {
			continue
		}
		// Admission: dis(p, P) > θ, with dis = 1 − (fraction of p running
		// on roads already used by P). Equivalently the candidate must be
		// more than θ new road. This also bounds every pairwise Eq. (1)
		// similarity below θ. Via-paths that revisit a node (the two halves
		// overlap) are rejected as malformed candidates, mirroring SSVP's
		// simple-path requirement.
		share, ok := sc.viaShare(d.g, fwd, bwd, u, len(routes) > 0)
		if !ok || share >= 1-d.opts.Theta {
			sc.rejectChain(d.g, fwd, bwd, u)
			continue
		}
		// viaShare walked both halves, so both reconstructions succeed.
		buf, _ = fwd.PathInto(buf[:0], d.g, u)
		buf, _ = bwd.PathInto(buf, d.g, u)
		if !sc.simple(d.g, buf, s) {
			sc.rejectChain(d.g, fwd, bwd, u)
			continue
		}
		cand, err := path.New(d.g, base, s, buf)
		if err != nil || !admit(d.g, cand, routes, d.opts.SimilarityCutoff) ||
			!admitLocalOpt(d.g, base, cand, fastest, d.opts) {
			sc.rejectChain(d.g, fwd, bwd, u)
			continue
		}
		cand.Edges = append([]graph.EdgeID(nil), cand.Edges...)
		routes = append(routes, cand)
		sc.markSelected(d.g, cand)
	}
	ws.KeepPathBuf(buf)
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// viaCand is one candidate via-node and the cost of its via-path.
type viaCand struct {
	cost float64
	node graph.NodeID
}

func (a viaCand) less(b viaCand) bool {
	return a.cost < b.cost || (a.cost == b.cost && a.node < b.node)
}

// prefixFold is the running fold of path.UnionShare over the forward-tree
// path s→v: its length and the part of it on selected road, summed from s
// in path order. It is valid while gen matches the scratch's.
type prefixFold struct {
	total, shared float64
	gen           uint32
}

// dissimScratch is the reusable state of one Dissimilarity query: the
// candidate heap, the forward prefix folds and epoch-stamped marks, each
// cleared only when its epoch wraps. Pooled so a warmed-up serving process
// allocates nothing per query but the routes it returns; the arrays grow
// to the largest graph the scratch has served.
type dissimScratch struct {
	heap []viaCand
	// skip[v] == query: v lies on a selected route or on the plateau chain
	// of a rejected via-path. used[e] == query: e's road segment (its node
	// pair, either direction) lies on a selected route.
	skip, used []uint32
	query      uint32
	// seen[v] == cand: v is already on the candidate being checked.
	seen []uint32
	cand uint32
	// prefix[v] memoizes v's forward fold; gen advances with every query
	// and every admission (which changes what counts as shared).
	prefix []prefixFold
	gen    uint32
	stack  []graph.NodeID
}

var dissimPool = sync.Pool{New: func() any { return new(dissimScratch) }}

// grow returns a extended to n zero entries when shorter.
func grow[T any](a []T, n int) []T {
	if len(a) < n {
		a = append(a, make([]T, n-len(a))...)
	}
	return a
}

// collect starts a query over g: it opens fresh epochs and heapifies every
// node reached by both trees whose via-path costs at most limit.
func (sc *dissimScratch) collect(g *graph.Graph, fwd, bwd *sp.Tree, limit float64) {
	n := g.NumNodes()
	sc.skip = grow(sc.skip, n)
	sc.seen = grow(sc.seen, n)
	sc.prefix = grow(sc.prefix, n)
	sc.used = grow(sc.used, g.NumEdges())
	if sc.query++; sc.query == 0 {
		clear(sc.skip)
		clear(sc.used)
		sc.query = 1
	}
	sc.nextGen()
	h := sc.heap[:0]
	fd, bd := fwd.Dist[:n], bwd.Dist[:n]
	for v := range fd {
		// Unreached nodes are +Inf in either tree and fail the bound.
		if c := fd[v] + bd[v]; c <= limit {
			h = append(h, viaCand{c, graph.NodeID(v)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	sc.heap = h
}

// nextGen invalidates every memoized prefix fold.
func (sc *dissimScratch) nextGen() {
	if sc.gen++; sc.gen == 0 {
		clear(sc.prefix)
		sc.gen = 1
	}
}

// pop removes and returns the cheapest remaining via-node; ties go to the
// lower node ID.
func (sc *dissimScratch) pop() graph.NodeID {
	h := sc.heap
	top := h[0].node
	last := len(h) - 1
	h[0] = h[last]
	sc.heap = h[:last]
	siftDown(sc.heap, 0)
	return top
}

func siftDown(h []viaCand, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// fold adds edge e to a running (total, shared) pair the way
// path.UnionShare's loop does.
func (sc *dissimScratch) fold(g *graph.Graph, e graph.EdgeID, total, shared float64) (float64, float64) {
	l := g.Edge(e).LengthM
	total += l
	if sc.used[e] == sc.query {
		shared += l
	}
	return total, shared
}

// viaShare returns the share of u's via-path length on selected road,
// bit-identical to path.UnionShare over the assembled path: the forward
// half comes from the memoized prefix fold, the backward half is folded
// on top of it edge by edge, and the share is 0 without selected routes
// or for zero length (the path is never empty, since s ≠ t). ok is false
// when a tree path cannot be followed.
func (sc *dissimScratch) viaShare(g *graph.Graph, fwd, bwd *sp.Tree, u graph.NodeID, anySelected bool) (share float64, ok bool) {
	pre, ok := sc.prefixTo(g, fwd, u)
	if !ok {
		return 0, false
	}
	total, shared := pre.total, pre.shared
	for v := u; v != bwd.Root; {
		e := bwd.Parent[v]
		if e < 0 {
			return 0, false
		}
		total, shared = sc.fold(g, e, total, shared)
		v = g.Edge(e).To
	}
	if !anySelected || total == 0 {
		return 0, true
	}
	return shared / total, true
}

// prefixTo returns u's forward fold, folding (and memoizing) the nodes
// between u and the nearest ancestor whose fold is current.
func (sc *dissimScratch) prefixTo(g *graph.Graph, fwd *sp.Tree, u graph.NodeID) (prefixFold, bool) {
	stack := sc.stack[:0]
	for v := u; sc.prefix[v].gen != sc.gen; {
		if v == fwd.Root {
			sc.prefix[v] = prefixFold{gen: sc.gen}
			break
		}
		e := fwd.Parent[v]
		if e < 0 {
			sc.stack = stack
			return prefixFold{}, false
		}
		stack = append(stack, v)
		v = g.Edge(e).From
	}
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		e := fwd.Parent[v]
		p := sc.prefix[g.Edge(e).From]
		p.total, p.shared = sc.fold(g, e, p.total, p.shared)
		sc.prefix[v] = p
	}
	sc.stack = stack
	return sc.prefix[u], true
}

// simple reports whether the walk edges from s visits no node twice.
func (sc *dissimScratch) simple(g *graph.Graph, edges []graph.EdgeID, s graph.NodeID) bool {
	if sc.cand++; sc.cand == 0 {
		clear(sc.seen)
		sc.cand = 1
	}
	sc.seen[s] = sc.cand
	for _, e := range edges {
		v := g.Edge(e).To
		if sc.seen[v] == sc.cand {
			return false
		}
		sc.seen[v] = sc.cand
	}
	return true
}

// rejectChain stamps u's plateau chain — the nodes linked to u by edges
// both trees use, each with u's via-path — so none is evaluated again.
func (sc *dissimScratch) rejectChain(g *graph.Graph, fwd, bwd *sp.Tree, u graph.NodeID) {
	sc.skip[u] = sc.query
	for v := u; ; {
		e := bwd.Parent[v]
		if e < 0 {
			break
		}
		if v = g.Edge(e).To; fwd.Parent[v] != e {
			break
		}
		sc.skip[v] = sc.query
	}
	for v := u; ; {
		e := fwd.Parent[v]
		if e < 0 {
			break
		}
		if v = g.Edge(e).From; bwd.Parent[v] != e {
			break
		}
		sc.skip[v] = sc.query
	}
}

// markSelected stamps an admitted route: its nodes are skipped from now
// on, and every edge between the endpoints of one of its edges, in either
// direction, counts as used road — which invalidates the prefix folds.
func (sc *dissimScratch) markSelected(g *graph.Graph, p path.Path) {
	for _, v := range p.Nodes {
		sc.skip[v] = sc.query
	}
	for _, e := range p.Edges {
		ed := g.Edge(e)
		sc.markSegment(g, ed.From, ed.To)
		sc.markSegment(g, ed.To, ed.From)
	}
	sc.nextGen()
}

// markSegment stamps every edge u→v.
func (sc *dissimScratch) markSegment(g *graph.Graph, u, v graph.NodeID) {
	heads := g.OutHeads(u)
	for i, e := range g.OutEdges(u) {
		if heads[i] == v {
			sc.used[e] = sc.query
		}
	}
}
