package cch

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file computes the metric-independent contraction order the
// customizable hierarchy is built on: a nested-dissection order from
// recursive bisection. Road networks are near-planar with small
// separators, so cutting the node set and ordering the separator *after*
// both halves yields the small-fill, balanced elimination orders CCH
// preprocessing wants (every chordal arc stays within one side or touches
// the separator, so fill-in cannot cross the cut). The order depends only
// on the topology and node coordinates — never on edge weights — which is
// what makes the contraction reusable across arbitrary weight snapshots.
//
// Two pipelines share the recursion, selected by OrderConfig.Kind:
//
//   - OrderGeometric splits along the longer bounding-box axis at the
//     median node and covers the coordinate cut with a greedy minimal
//     vertex cover (refineSeparator).
//   - OrderFlow additionally runs an inertial-flow refinement per split:
//     the sorted set's extreme quarters become source and sink terminals,
//     a unit-capacity Dinic (flow.go) computes the minimum vertex cut
//     between them, and the more balanced of the residual graph's two
//     canonical minimum cuts replaces the geometric separator — but only
//     when it is strictly smaller, so the flow order is never worse than
//     the geometric one at any split.
//
// Separator size drives everything downstream — chordal pairs, triangles,
// customization time, PHAST/RPHAST sweep arcs, matrix fill — which is why
// the flow refinement pays for itself across every weight snapshot the
// preprocessing ever serves.
//
// The recursion is parallel: the two interiors of a split share no nodes
// and no rank slots (each branch's rank range is pre-reserved before it
// is descended into), so branches fan out over OrderConfig.Workers
// goroutines with output bit-identical to the serial recursion.

// OrderKind selects the nested-dissection separator pipeline.
type OrderKind uint8

const (
	// OrderGeometric is the coordinate-bisection pipeline: median split
	// along the longer axis, greedy vertex-cover separator refinement.
	OrderGeometric OrderKind = iota
	// OrderFlow refines every split with an inertial-flow minimum vertex
	// cut between the split's extreme quarters, falling back to the
	// geometric separator whenever the cut is not strictly smaller.
	// Smaller separators, fewer pairs and triangles, slower (one-off)
	// preprocessing.
	OrderFlow
)

// ParseOrderKind maps the shared command-line flag spelling ("geometric"
// or "flow") onto an OrderKind.
func ParseOrderKind(s string) (OrderKind, error) {
	switch s {
	case "geometric":
		return OrderGeometric, nil
	case "flow":
		return OrderFlow, nil
	}
	return 0, fmt.Errorf("cch: invalid order kind %q (want geometric or flow)", s)
}

// String implements fmt.Stringer.
func (k OrderKind) String() string {
	if k == OrderFlow {
		return "flow"
	}
	return "geometric"
}

// OrderConfig tunes one nested-dissection run. The zero value is the
// historical default: geometric separators, GOMAXPROCS-parallel
// recursion. Every configuration of Workers produces bit-identical
// ranks — branch rank ranges are pre-reserved, so parallelism is purely
// a wall-clock knob.
type OrderConfig struct {
	Kind OrderKind
	// Workers bounds the recursion fan-out. 0 (or negative) selects
	// runtime.GOMAXPROCS(0); 1 forces serial recursion.
	Workers int
}

// Order computes the nested-dissection contraction order with the
// default configuration (geometric separators). The returned slice maps
// node -> rank; higher rank = contracted later = more important,
// matching the ch package's convention.
func Order(g *graph.Graph) []int32 { return OrderWith(g, OrderConfig{}) }

// OrderWith is Order with explicit pipeline and worker control.
func OrderWith(g *graph.Graph, cfg OrderConfig) []int32 {
	return orderImpl(g, cfg, nil)
}

// orderImpl runs the dissection. onSplit, when non-nil (the package
// tests), receives every non-degenerate split before its interiors
// recurse and forces serial recursion so observation order is
// deterministic.
func orderImpl(g *graph.Graph, cfg OrderConfig, onSplit func(depth int, set, intA, intB, sep []graph.NodeID)) []int32 {
	n := g.NumNodes()
	rank := make([]int32, n)
	if n == 0 {
		return rank
	}
	nodes := make([]graph.NodeID, n)
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	st := &orderState{g: g, kind: cfg.Kind, rank: rank, onSplit: onSplit}
	// Scale longitude distances to latitude degrees so the axis choice
	// reflects metric extent, not raw degree spans.
	st.lonScale = math.Cos(g.BBox().Center().Lat * math.Pi / 180)
	st.pool.New = func() any {
		return &dissector{st: st, setID: make([]int32, n), cover: make([]int32, n)}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && onSplit == nil {
		// The calling goroutine is worker #0; the semaphore holds the
		// extra slots branches may claim.
		st.sem = make(chan struct{}, workers-1)
	}
	d := st.pool.Get().(*dissector)
	d.dissect(nodes, 0, 0)
	st.pool.Put(d)
	st.wg.Wait()
	return rank
}

// orderState is the shared state of one OrderWith run: the output rank
// array (branches write disjoint pre-reserved ranges), the worker
// semaphore, and a pool of per-goroutine dissector scratches.
type orderState struct {
	g        *graph.Graph
	kind     OrderKind
	lonScale float64
	rank     []int32
	sem      chan struct{}
	wg       sync.WaitGroup
	pool     sync.Pool
	onSplit  func(depth int, set, intA, intB, sep []graph.NodeID)
}

// dissector is one goroutine's private scratch state. setID stamps which
// current partition a node belongs to, so separator detection can test
// "neighbour on the other side" in O(1) without per-level sets; IDs are
// issued fresh for every split and are only ever compared against stamps
// this same scratch wrote, so a branch running on its own scratch never
// observes (or races with) a sibling's stamps.
type dissector struct {
	st    *orderState
	setID []int32
	// cover stamps cover membership during separator refinement on a
	// separate array so setID keeps holding side membership (the greedy
	// drop check needs to tell cut partners from same-side boundary
	// neighbours).
	cover  []int32
	nextID int32
	// flow is the zero-alloc Dinic scratch of the OrderFlow pipeline,
	// lazily sized at the first refined split.
	flow flowScratch
}

// leafSize is the partition size below which nodes are ordered directly;
// small enough that worst-case clique fill on a leaf is negligible.
const leafSize = 24

// parallelDissectMin is the interior size below which a branch is not
// worth handing to another goroutine.
const parallelDissectMin = 2048

// dissect orders the given node set into ranks [base, base+len(set)):
// both interiors first (recursively), the separator last, so separator
// nodes end up the most important nodes of their subtree. Rank ranges
// are fully determined before any recursion starts, which is what makes
// branch-parallel execution bit-identical to serial.
func (d *dissector) dissect(set []graph.NodeID, base int32, depth int) {
	st := d.st
	if len(set) <= leafSize {
		for i, v := range set {
			st.rank[v] = base + int32(i)
		}
		return
	}
	// Split along the longer axis at the median node. Splitting by sorted
	// position (not coordinate value) keeps the halves balanced even when
	// many nodes share a coordinate.
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	for _, v := range set {
		p := st.g.Point(v)
		minLat, maxLat = math.Min(minLat, p.Lat), math.Max(maxLat, p.Lat)
		minLon, maxLon = math.Min(minLon, p.Lon), math.Max(maxLon, p.Lon)
	}
	byLon := (maxLon-minLon)*st.lonScale > maxLat-minLat
	sort.Slice(set, func(i, j int) bool {
		pi, pj := st.g.Point(set[i]), st.g.Point(set[j])
		if byLon {
			if pi.Lon != pj.Lon {
				return pi.Lon < pj.Lon
			}
			return pi.Lat < pj.Lat
		}
		if pi.Lat != pj.Lat {
			return pi.Lat < pj.Lat
		}
		return pi.Lon < pj.Lon
	})
	mid := len(set) / 2
	a, b := set[:mid], set[mid:]

	aID := d.freshID()
	bID := d.freshID()
	for _, v := range a {
		d.setID[v] = aID
	}
	for _, v := range b {
		d.setID[v] = bID
	}
	sep, intA, intB := d.separate(set, a, b, aID, bID)
	// Degenerate split (everything is separator): recursion cannot make
	// progress, so order the set directly — abandoning recursion for the
	// full set would hand the chordal fill-in an arbitrary order over up
	// to n nodes, but this only happens for dense blobs the leaf path
	// handles acceptably.
	if len(sep) == len(set) {
		for i, v := range set {
			st.rank[v] = base + int32(i)
		}
		return
	}
	if st.onSplit != nil {
		st.onSplit(depth, set, intA, intB, sep)
	}
	// Pre-reserve every range: interiors pack [base, base+|intA|+|intB|),
	// the separator takes the top of the subtree — its nodes become the
	// most important of this split whatever order the branches run in.
	for i, v := range sep {
		st.rank[v] = base + int32(len(set)-len(sep)+i)
	}
	baseB := base + int32(len(intA))
	if st.sem != nil && len(intA) >= parallelDissectMin {
		select {
		case st.sem <- struct{}{}:
			st.wg.Add(1)
			go func(branch []graph.NodeID, branchBase int32) {
				defer st.wg.Done()
				d2 := st.pool.Get().(*dissector)
				d2.dissect(branch, branchBase, depth+1)
				st.pool.Put(d2)
				<-st.sem
			}(intA, base)
			intA = nil
		default:
			// No free worker: recurse inline below.
		}
	}
	if intA != nil {
		d.dissect(intA, base, depth+1)
	}
	d.dissect(intB, baseB, depth+1)
}

// separate computes the split's vertex separator and the two interiors
// it leaves. The geometric baseline covers the coordinate cut with the
// greedy vertex-cover refinement; the flow pipeline then tries to beat
// it with an inertial-flow minimum cut and keeps whichever is smaller —
// the refinement is monotone: never worse than the geometric separator.
// A degenerate result (separator == set) is signalled by nil interiors.
func (d *dissector) separate(set, a, b []graph.NodeID, aID, bID int32) (sep, intA, intB []graph.NodeID) {
	sep = d.refineSeparator(set, a, b, aID, bID)
	if d.st.kind == OrderFlow && len(sep) > 0 {
		if fsep, fa, fb, ok := d.flowRefine(set, aID, bID, len(sep)); ok {
			return fsep, fa, fb
		}
	}
	if len(sep) == len(set) {
		return sep, nil, nil
	}
	// Interiors of the geometric halves. sepID stamps let the membership
	// test run in one pass per side.
	sepID := d.freshID()
	for _, v := range sep {
		d.setID[v] = sepID
	}
	intA = make([]graph.NodeID, 0, len(a))
	for _, v := range a {
		if d.setID[v] != sepID {
			intA = append(intA, v)
		}
	}
	intB = make([]graph.NodeID, 0, len(b))
	for _, v := range b {
		if d.setID[v] != sepID {
			intB = append(intB, v)
		}
	}
	return sep, intA, intB
}

// flowMinBalanceDen is the balance corridor: each flow interior must keep
// at least len(set)/flowMinBalanceDen nodes. The terminal construction
// (uncuttable extreme quarters) guarantees this structurally; the check
// is the safety net that keeps a surprising cut from degenerating the
// recursion.
const flowMinBalanceDen = 4

// flowRefine runs the inertial-flow refinement of one split: the sorted
// set's extreme quarters become terminals, Dinic computes the minimum
// vertex cut between them (aborting at bound, the incumbent geometric
// separator's size), and the most balanced minimal cut's sides become
// the interiors. ok is false when the cut is no improvement or falls
// outside the balance corridor — the caller then keeps the geometric
// separator, making the refinement monotone.
func (d *dissector) flowRefine(set []graph.NodeID, aID, bID int32, bound int) (sep, intA, intB []graph.NodeID, ok bool) {
	m := len(set)
	nTerm := m / 4
	if nTerm < 1 {
		return nil, nil, nil, false
	}
	cut, done := d.flow.minVertexCut(d.st.g, set, nTerm, nTerm, d.setID, aID, bID, int32(bound))
	if !done || cut >= bound {
		return nil, nil, nil, false
	}
	intA = make([]graph.NodeID, 0, m-cut)
	intB = make([]graph.NodeID, 0, m-cut)
	sep = make([]graph.NodeID, 0, cut)
	for i, v := range set { // set order: deterministic
		switch d.flow.side[i] {
		case flowSideA:
			intA = append(intA, v)
		case flowSideCut:
			sep = append(sep, v)
		default:
			intB = append(intB, v)
		}
	}
	if len(intA) < m/flowMinBalanceDen || len(intB) < m/flowMinBalanceDen {
		return nil, nil, nil, false
	}
	return sep, intA, intB, true
}

// refineSeparator returns a vertex separator of the a/b split: a set of
// nodes covering every cut edge, ranked after both interiors. It builds
// the two-sided boundary (every endpoint of a cut edge), greedily drops
// nodes whose cut edges are all still covered from the other side
// (ascending cut-degree, so chain endpoints and other cheap nodes go
// first), and falls back to the one-sided A boundary when that greedy
// cover comes out larger — the refinement is monotone: never worse than
// the pre-refinement separator.
func (d *dissector) refineSeparator(set, a, b []graph.NodeID, aID, bID int32) []graph.NodeID {
	otherOf := func(v graph.NodeID) int32 {
		if d.setID[v] == bID {
			return aID
		}
		return bID
	}
	// Two-sided boundary with cut degrees. Iterating the coordinate-sorted
	// set keeps everything deterministic.
	var boundary []graph.NodeID
	var oneSided int
	for _, v := range set {
		if d.cutDegree(v, otherOf(v)) > 0 {
			boundary = append(boundary, v)
			if d.setID[v] == aID {
				oneSided++
			}
		}
	}
	if len(boundary) == 0 {
		return nil // disconnected halves: no separator needed
	}
	sort.SliceStable(boundary, func(i, j int) bool {
		vi, vj := boundary[i], boundary[j]
		return d.cutDegree(vi, otherOf(vi)) < d.cutDegree(vj, otherOf(vj))
	})
	// Greedy redundant-node removal over the cover stamps (setID keeps
	// holding side membership): drop v when every cut edge at v is still
	// covered by its other endpoint. A drop makes the partners
	// load-bearing, so each cut edge keeps at least one endpoint — the
	// result is a minimal (not minimum) vertex cover of the cut, visited
	// in ascending cut-degree so cheap chain endpoints go first.
	inCover := d.freshID()
	for _, v := range boundary {
		d.cover[v] = inCover
	}
	cover := len(boundary)
	for _, v := range boundary {
		other := otherOf(v)
		redundant := true
		for _, u := range d.st.g.OutHeads(v) {
			if d.setID[u] == other && d.cover[u] != inCover {
				redundant = false
				break
			}
		}
		if redundant {
			for _, u := range d.st.g.InTails(v) {
				if d.setID[u] == other && d.cover[u] != inCover {
					redundant = false
					break
				}
			}
		}
		if redundant {
			d.cover[v] = 0
			cover--
		}
	}
	if cover < oneSided {
		sep := make([]graph.NodeID, 0, cover)
		for _, v := range set { // set order: deterministic
			if d.cover[v] == inCover {
				sep = append(sep, v)
			}
		}
		return sep
	}
	// One-sided fallback: every A node touching B (the pre-refinement
	// separator) — the refinement never returns a larger separator than
	// the geometric split alone produced.
	sep := make([]graph.NodeID, 0, oneSided)
	for _, v := range a {
		if d.touches(v, bID) {
			sep = append(sep, v)
		}
	}
	return sep
}

// cutDegree counts v's (out + in) neighbours currently stamped with the
// given partition id — v's number of cut edge endpoints, counting
// parallel and two-way edges as they appear in the adjacency.
func (d *dissector) cutDegree(v graph.NodeID, id int32) int {
	deg := 0
	for _, u := range d.st.g.OutHeads(v) {
		if d.setID[u] == id {
			deg++
		}
	}
	for _, u := range d.st.g.InTails(v) {
		if d.setID[u] == id {
			deg++
		}
	}
	return deg
}

func (d *dissector) freshID() int32 {
	d.nextID++
	return d.nextID
}

// touches reports whether v has an out- or in-neighbour currently stamped
// with the given partition id.
func (d *dissector) touches(v graph.NodeID, id int32) bool {
	for _, u := range d.st.g.OutHeads(v) {
		if d.setID[u] == id {
			return true
		}
	}
	for _, u := range d.st.g.InTails(v) {
		if d.setID[u] == id {
			return true
		}
	}
	return false
}
