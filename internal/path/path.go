// Package path provides the route representation shared by all
// alternative-route techniques plus the route analytics the paper's
// evaluation uses: the Sim(T) similarity measure of Eq. (1), turn counts,
// detour factors and local-optimality checks.
package path

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/graph"
)

// Path is a route through the road network: a contiguous sequence of
// directed edges together with cached aggregate measures.
type Path struct {
	Edges   []graph.EdgeID
	Nodes   []graph.NodeID // Nodes[i] precedes Edges[i]; len(Nodes) == len(Edges)+1
	TimeS   float64        // travel time under the weights passed to New
	LengthM float64        // geometric length in meters
}

// New assembles a Path from an edge sequence starting at s, validating
// contiguity and computing travel time under the given weights. An empty
// edge sequence yields the trivial path at s.
func New(g *graph.Graph, weights []float64, s graph.NodeID, edges []graph.EdgeID) (Path, error) {
	p := Path{
		Edges: edges,
		Nodes: make([]graph.NodeID, 0, len(edges)+1),
	}
	p.Nodes = append(p.Nodes, s)
	cur := s
	for i, e := range edges {
		ed := g.Edge(e)
		if ed.From != cur {
			return Path{}, fmt.Errorf("path: edge %d (%d->%d) does not continue from node %d", i, ed.From, ed.To, cur)
		}
		cur = ed.To
		p.Nodes = append(p.Nodes, cur)
		p.TimeS += weights[e]
		p.LengthM += ed.LengthM
	}
	return p, nil
}

// MustNew is New but panics on malformed input; for use with edge
// sequences produced by the sp package, which are contiguous by
// construction.
func MustNew(g *graph.Graph, weights []float64, s graph.NodeID, edges []graph.EdgeID) Path {
	p, err := New(g, weights, s, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Source returns the first node of the path.
func (p Path) Source() graph.NodeID { return p.Nodes[0] }

// Target returns the last node of the path.
func (p Path) Target() graph.NodeID { return p.Nodes[len(p.Nodes)-1] }

// Empty reports whether the path has no edges.
func (p Path) Empty() bool { return len(p.Edges) == 0 }

// TimeUnder returns the path's travel time evaluated under a different
// weight vector — the operation behind the paper's Fig. 4 analysis, where
// the same route is timed under OSM data and under the commercial
// provider's data.
func (p Path) TimeUnder(weights []float64) float64 {
	var t float64
	for _, e := range p.Edges {
		t += weights[e]
	}
	return t
}

// Points returns the coordinate polyline of the path.
func (p Path) Points(g *graph.Graph) []geo.Point {
	pts := make([]geo.Point, len(p.Nodes))
	for i, v := range p.Nodes {
		pts[i] = g.Point(v)
	}
	return pts
}

// Equal reports whether two paths traverse exactly the same edge sequence.
func Equal(a, b Path) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// segmentKey canonicalizes a directed edge to its undirected road segment
// so that overlap measurement treats the two directions of a street as the
// same physical road.
type segmentKey struct {
	lo, hi graph.NodeID
}

func segKey(e graph.Edge) segmentKey {
	if e.From < e.To {
		return segmentKey{e.From, e.To}
	}
	return segmentKey{e.To, e.From}
}

// Overlap returns the total length of road segments shared by a and b and
// the length of their union, both in meters, as used by Eq. (1).
func Overlap(g *graph.Graph, a, b Path) (interM, unionM float64) {
	seen := make(map[segmentKey]float64, len(a.Edges))
	var lenA float64
	for _, e := range a.Edges {
		ed := g.Edge(e)
		k := segKey(ed)
		if _, dup := seen[k]; !dup {
			seen[k] = ed.LengthM
		}
		lenA += ed.LengthM
	}
	var lenB float64
	counted := make(map[segmentKey]bool, len(b.Edges))
	for _, e := range b.Edges {
		ed := g.Edge(e)
		lenB += ed.LengthM
		k := segKey(ed)
		if counted[k] {
			continue
		}
		counted[k] = true
		if l, ok := seen[k]; ok {
			interM += l
		}
	}
	unionM = lenA + lenB - interM
	return interM, unionM
}

// Jaccard returns |X∩Y| / |X∪Y| over segment lengths, the pairwise
// similarity inside Eq. (1). Two empty paths have similarity 0.
func Jaccard(g *graph.Graph, a, b Path) float64 {
	inter, union := Overlap(g, a, b)
	if union <= 0 {
		return 0
	}
	return inter / union
}

// SimT implements Eq. (1) of the paper: the maximum pairwise Jaccard
// similarity over all distinct pairs in the route set T. Sets with fewer
// than two routes score 0.
func SimT(g *graph.Graph, routes []Path) float64 {
	var maxSim float64
	for i := 0; i < len(routes); i++ {
		for j := i + 1; j < len(routes); j++ {
			if s := Jaccard(g, routes[i], routes[j]); s > maxSim {
				maxSim = s
			}
		}
	}
	return maxSim
}

// MaxSimilarityTo returns the largest Jaccard similarity between p and any
// path in set; 0 for an empty set. This is the quantity the Dissimilarity
// technique thresholds: p is admissible iff MaxSimilarityTo(p, set) < θ.
func MaxSimilarityTo(g *graph.Graph, p Path, set []Path) float64 {
	var maxSim float64
	for i := range set {
		if s := Jaccard(g, p, set[i]); s > maxSim {
			maxSim = s
		}
	}
	return maxSim
}

// UnionShare returns the fraction of p's length that runs along road
// segments used by *any* path in set — the dissimilarity criterion of the
// SSVP family (Chondrogiannis et al.): a candidate is admitted only if
// UnionShare < θ, i.e. more than 1−θ of it is new road. It returns 0 for
// an empty set or an empty path.
func UnionShare(g *graph.Graph, p Path, set []Path) float64 {
	if len(set) == 0 || p.Empty() {
		return 0
	}
	used := make(map[segmentKey]bool)
	for i := range set {
		for _, e := range set[i].Edges {
			used[segKey(g.Edge(e))] = true
		}
	}
	var shared, total float64
	for _, e := range p.Edges {
		ed := g.Edge(e)
		total += ed.LengthM
		if used[segKey(ed)] {
			shared += ed.LengthM
		}
	}
	if total == 0 {
		return 0
	}
	return shared / total
}

// TurnCount returns the number of interior vertices at which the direction
// change exceeds thresholdDeg — the "less zig-zag" criterion participants
// mentioned in the study (§IV-C). The direction change at Nodes[i] is
// geo.TurnAngle of Nodes[i-1], Nodes[i] and Nodes[i+1], read from the
// stored bearings of the edges into and out of it.
func TurnCount(g *graph.Graph, p Path, thresholdDeg float64) int {
	count := 0
	for i := 1; i < len(p.Edges); i++ {
		if geo.BearingChange(g.Bearing(p.Edges[i-1]), g.Bearing(p.Edges[i])) > thresholdDeg {
			count++
		}
	}
	return count
}

// Stretch returns the detour factor of p relative to the fastest travel
// time: p.TimeS / fastest. The paper's upper-bound parameter constrains
// this to at most 1.4 for reported alternatives.
func Stretch(p Path, fastestTimeS float64) float64 {
	if fastestTimeS <= 0 {
		return math.Inf(1)
	}
	return p.TimeS / fastestTimeS
}

// MeanLanes returns the length-weighted average per-direction lane count of
// the path — the "wider roads" signal from §IV-C.
func MeanLanes(g *graph.Graph, p Path) float64 {
	if p.Empty() {
		return 0
	}
	var weighted, total float64
	for _, e := range p.Edges {
		ed := g.Edge(e)
		weighted += float64(ed.Lanes) * ed.LengthM
		total += ed.LengthM
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// SharedPrefixLen returns the number of leading edges a and b share.
func SharedPrefixLen(a, b Path) int {
	n := len(a.Edges)
	if len(b.Edges) < n {
		n = len(b.Edges)
	}
	for i := 0; i < n; i++ {
		if a.Edges[i] != b.Edges[i] {
			return i
		}
	}
	return n
}

// Dedup returns routes with exact duplicates (same edge sequence) removed,
// preserving first-seen order.
func Dedup(routes []Path) []Path {
	out := routes[:0:0]
	for _, r := range routes {
		dup := false
		for _, kept := range out {
			if Equal(r, kept) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}
