// Package graph implements the directed, weighted road-network graph that
// all routing algorithms in this repository operate on.
//
// The graph is stored in compressed sparse row (CSR) form for both the
// forward and the reverse direction, which makes forward and backward
// Dijkstra searches (the building blocks of the Plateaus and Dissimilarity
// techniques) equally cheap. Edge weights are travel times in seconds,
// computed per the paper: length / maxspeed, scaled by 1.3 on non-freeway
// segments.
//
// Graphs are built through a Builder and are immutable afterwards;
// algorithms that need modified weights (the Penalty technique, the traffic
// simulation) work on their own weight slices obtained via CopyWeights.
package graph

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// NodeID identifies a vertex of the road network.
type NodeID int32

// EdgeID identifies a directed edge of the road network.
type EdgeID int32

// InvalidNode is returned by lookups that find no vertex.
const InvalidNode NodeID = -1

// Edge is a directed road segment.
type Edge struct {
	From     NodeID
	To       NodeID
	LengthM  float64   // geometric length in meters
	SpeedKmh float64   // assumed maximum speed
	Class    RoadClass // OSM highway class
	Lanes    uint8     // per-direction lane count
	TimeS    float64   // travel-time weight in seconds (the paper's edge weight)
}

// Graph is an immutable road network. Use a Builder to construct one.
type Graph struct {
	points []geo.Point
	edges  []Edge

	// Forward CSR: edges leaving node v are edgeIDs fwdAdj[fwdOff[v]:fwdOff[v+1]].
	fwdOff []int32
	fwdAdj []EdgeID
	// Reverse CSR: edges entering node v.
	revOff []int32
	revAdj []EdgeID
	// Packed relaxation arrays, aligned with fwdAdj/revAdj: fwdTo[i] is the
	// head of edge fwdAdj[i], revFrom[i] the tail of edge revAdj[i]. They
	// let Dijkstra-style relaxations read (edge, endpoint) pairs from two
	// sequential arrays instead of loading a full Edge struct per edge just
	// to extract one endpoint.
	fwdTo   []NodeID
	revFrom []NodeID
	// ends and bearing are per-edge columns, indexed by EdgeID: the tail
	// and head (8 bytes instead of the 40-byte Edge the plateau join would
	// otherwise load per test) and the initial great-circle bearing from
	// tail to head, computed once here so ranking reads two numbers per
	// vertex instead of two Atan2 evaluations.
	ends    []EdgeEnds
	bearing []float64

	// baseW caches the travel-time weight of every edge, indexed by
	// EdgeID — the public OSM-derived metric shared by every reader.
	baseW []float64

	bbox geo.BBox
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.points) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Point returns the coordinates of node v.
func (g *Graph) Point(v NodeID) geo.Point { return g.points[v] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// EdgeEnds is the tail and the head of a directed edge.
type EdgeEnds struct{ From, To NodeID }

// Ends returns the tail and the head of edge e.
func (g *Graph) Ends(e EdgeID) EdgeEnds { return g.ends[e] }

// Bearing returns geo.Bearing from edge e's tail to its head, in degrees
// within [0, 360).
func (g *Graph) Bearing(e EdgeID) float64 { return g.bearing[e] }

// BBox returns the bounding box of all vertices.
func (g *Graph) BBox() geo.BBox { return g.bbox }

// OutEdges returns the IDs of the edges leaving v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutEdges(v NodeID) []EdgeID {
	return g.fwdAdj[g.fwdOff[v]:g.fwdOff[v+1]]
}

// InEdges returns the IDs of the edges entering v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) InEdges(v NodeID) []EdgeID {
	return g.revAdj[g.revOff[v]:g.revOff[v+1]]
}

// OutHeads returns the head (To) node of every edge leaving v, aligned
// index-for-index with OutEdges(v). The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) OutHeads(v NodeID) []NodeID {
	return g.fwdTo[g.fwdOff[v]:g.fwdOff[v+1]]
}

// InTails returns the tail (From) node of every edge entering v, aligned
// index-for-index with InEdges(v). The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) InTails(v NodeID) []NodeID {
	return g.revFrom[g.revOff[v]:g.revOff[v+1]]
}

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.fwdOff[v+1] - g.fwdOff[v])
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.revOff[v+1] - g.revOff[v])
}

// FindEdge returns the ID of a directed edge from u to v, or -1 if none
// exists. If parallel edges exist the one with the smallest weight is
// returned.
func (g *Graph) FindEdge(u, v NodeID) EdgeID {
	best := EdgeID(-1)
	bestW := math.Inf(1)
	for _, e := range g.OutEdges(u) {
		if g.edges[e].To == v && g.edges[e].TimeS < bestW {
			best, bestW = e, g.edges[e].TimeS
		}
	}
	return best
}

// BaseWeights returns the graph's own travel-time weight vector, indexed
// by EdgeID. The returned slice aliases internal storage and must not be
// modified; it is the shared read-only metric that weight snapshots and
// planners resolve against without per-construction copies.
func (g *Graph) BaseWeights() []float64 { return g.baseW }

// CopyWeights returns a fresh slice holding the travel-time weight of every
// edge, indexed by EdgeID. Algorithms that perturb weights (Penalty,
// traffic simulation) operate on such copies so that the graph itself stays
// immutable and shareable across goroutines; read-only consumers should use
// BaseWeights instead.
func (g *Graph) CopyWeights() []float64 {
	w := make([]float64, len(g.baseW))
	copy(w, g.baseW)
	return w
}

// TotalLengthM returns the summed geometric length of all directed edges.
func (g *Graph) TotalLengthM() float64 {
	var sum float64
	for i := range g.edges {
		sum += g.edges[i].LengthM
	}
	return sum
}

// Builder incrementally assembles a Graph.
type Builder struct {
	points []geo.Point
	edges  []Edge
}

// NewBuilder returns an empty Builder. The capacity hints may be zero.
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		points: make([]geo.Point, 0, nodeHint),
		edges:  make([]Edge, 0, edgeHint),
	}
}

// AddNode appends a vertex at p and returns its ID.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.points = append(b.points, p)
	return NodeID(len(b.points) - 1)
}

// NumNodes returns the number of vertices added so far.
func (b *Builder) NumNodes() int { return len(b.points) }

// EdgeSpec describes a directed edge to add. A zero SpeedKmh selects the
// class default; a zero Lanes selects the class default; a zero LengthM
// computes the haversine distance between the endpoints.
type EdgeSpec struct {
	From, To NodeID
	LengthM  float64
	SpeedKmh float64
	Class    RoadClass
	Lanes    int
	TwoWay   bool // also add the reverse edge
}

// AddEdge adds the edge described by spec and returns the ID of the forward
// edge. It returns an error if an endpoint is out of range or the edge is a
// self-loop.
func (b *Builder) AddEdge(spec EdgeSpec) (EdgeID, error) {
	n := NodeID(len(b.points))
	if spec.From < 0 || spec.From >= n || spec.To < 0 || spec.To >= n {
		return -1, fmt.Errorf("graph: edge endpoint out of range: %d -> %d (have %d nodes)", spec.From, spec.To, n)
	}
	if spec.From == spec.To {
		return -1, fmt.Errorf("graph: self-loop at node %d rejected", spec.From)
	}
	if spec.LengthM <= 0 {
		spec.LengthM = geo.Haversine(b.points[spec.From], b.points[spec.To])
	}
	if spec.SpeedKmh <= 0 {
		spec.SpeedKmh = spec.Class.DefaultSpeedKmh()
	}
	if spec.Lanes <= 0 {
		spec.Lanes = spec.Class.DefaultLanes()
	}
	mk := func(from, to NodeID) Edge {
		return Edge{
			From:     from,
			To:       to,
			LengthM:  spec.LengthM,
			SpeedKmh: spec.SpeedKmh,
			Class:    spec.Class,
			Lanes:    uint8(spec.Lanes),
			TimeS:    TravelTimeSeconds(spec.LengthM, spec.SpeedKmh, spec.Class),
		}
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, mk(spec.From, spec.To))
	if spec.TwoWay {
		b.edges = append(b.edges, mk(spec.To, spec.From))
	}
	return id, nil
}

// Build freezes the builder into an immutable Graph. The builder must not
// be reused afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.points)
	g := &Graph{
		points:  b.points,
		edges:   b.edges,
		fwdOff:  make([]int32, n+1),
		revOff:  make([]int32, n+1),
		fwdAdj:  make([]EdgeID, len(b.edges)),
		revAdj:  make([]EdgeID, len(b.edges)),
		fwdTo:   make([]NodeID, len(b.edges)),
		revFrom: make([]NodeID, len(b.edges)),
	}
	for i := range g.edges {
		g.fwdOff[g.edges[i].From+1]++
		g.revOff[g.edges[i].To+1]++
	}
	for v := 0; v < n; v++ {
		g.fwdOff[v+1] += g.fwdOff[v]
		g.revOff[v+1] += g.revOff[v]
	}
	fwdNext := make([]int32, n)
	revNext := make([]int32, n)
	copy(fwdNext, g.fwdOff[:n])
	copy(revNext, g.revOff[:n])
	for i := range g.edges {
		e := &g.edges[i]
		g.fwdAdj[fwdNext[e.From]] = EdgeID(i)
		g.fwdTo[fwdNext[e.From]] = e.To
		fwdNext[e.From]++
		g.revAdj[revNext[e.To]] = EdgeID(i)
		g.revFrom[revNext[e.To]] = e.From
		revNext[e.To]++
	}
	g.baseW = make([]float64, len(g.edges))
	g.ends = make([]EdgeEnds, len(g.edges))
	g.bearing = make([]float64, len(g.edges))
	for i := range g.edges {
		e := &g.edges[i]
		g.baseW[i] = e.TimeS
		g.ends[i] = EdgeEnds{e.From, e.To}
		g.bearing[i] = geo.Bearing(b.points[e.From], b.points[e.To])
	}
	if n > 0 {
		g.bbox = geo.NewBBox(g.points...)
	}
	return g
}
