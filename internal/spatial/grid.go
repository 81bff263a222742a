// Package spatial provides a uniform-grid index over road-network vertices
// used for geo-coordinate matching: mapping a clicked map location to the
// nearest graph vertex, the first step of the paper's query processor.
package spatial

import (
	"math"

	"repro/internal/geo"
	"repro/internal/graph"
)

// Index is a uniform grid over the graph's bounding box. Cells hold the
// vertices whose coordinates fall inside them; nearest-neighbour queries
// expand rings of cells around the query point until a best candidate is
// provably found.
type Index struct {
	g          *graph.Graph
	bbox       geo.BBox
	rows, cols int
	cellH      float64 // degrees latitude per cell
	cellW      float64 // degrees longitude per cell
	cells      [][]graph.NodeID
}

// NewIndex builds a grid index over all vertices of g. targetPerCell
// controls cell granularity; values around 8-32 work well. It panics if
// the graph has no vertices.
func NewIndex(g *graph.Graph, targetPerCell int) *Index {
	n := g.NumNodes()
	if n == 0 {
		panic("spatial: cannot index an empty graph")
	}
	if targetPerCell <= 0 {
		targetPerCell = 16
	}
	numCells := n/targetPerCell + 1
	side := int(math.Ceil(math.Sqrt(float64(numCells))))
	if side < 1 {
		side = 1
	}
	bbox := g.BBox()
	// Pad degenerate extents so that every point falls in a valid cell.
	const eps = 1e-9
	if bbox.MaxLat-bbox.MinLat < eps {
		bbox.MaxLat += eps
	}
	if bbox.MaxLon-bbox.MinLon < eps {
		bbox.MaxLon += eps
	}
	idx := &Index{
		g:     g,
		bbox:  bbox,
		rows:  side,
		cols:  side,
		cellH: (bbox.MaxLat - bbox.MinLat) / float64(side),
		cellW: (bbox.MaxLon - bbox.MinLon) / float64(side),
		cells: make([][]graph.NodeID, side*side),
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		c := idx.cellOf(g.Point(v))
		idx.cells[c] = append(idx.cells[c], v)
	}
	return idx
}

func (idx *Index) cellOf(p geo.Point) int {
	r := int((p.Lat - idx.bbox.MinLat) / idx.cellH)
	c := int((p.Lon - idx.bbox.MinLon) / idx.cellW)
	if r < 0 {
		r = 0
	}
	if r >= idx.rows {
		r = idx.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= idx.cols {
		c = idx.cols - 1
	}
	return r*idx.cols + c
}

// Nearest returns the vertex closest to p by haversine distance, together
// with that distance in meters. It never fails on a non-empty graph.
func (idx *Index) Nearest(p geo.Point) (graph.NodeID, float64) {
	centerCell := idx.cellOf(p)
	cr, cc := centerCell/idx.cols, centerCell%idx.cols

	best := graph.InvalidNode
	bestD := math.Inf(1)
	scanCell := func(r, c int) {
		if r < 0 || r >= idx.rows || c < 0 || c >= idx.cols {
			return
		}
		for _, v := range idx.cells[r*idx.cols+c] {
			if d := geo.Haversine(p, idx.g.Point(v)); d < bestD {
				best, bestD = v, d
			}
		}
	}

	maxRing := idx.rows
	if idx.cols > maxRing {
		maxRing = idx.cols
	}
	for ring := 0; ring <= maxRing; ring++ {
		if ring == 0 {
			scanCell(cr, cc)
		} else {
			for c := cc - ring; c <= cc+ring; c++ {
				scanCell(cr-ring, c)
				scanCell(cr+ring, c)
			}
			for r := cr - ring + 1; r <= cr+ring-1; r++ {
				scanCell(r, cc-ring)
				scanCell(r, cc+ring)
			}
		}
		if best != graph.InvalidNode {
			// The next unexplored ring starts at least ringDist away; if the
			// current best is closer than that lower bound we are done.
			ringDist := idx.ringLowerBoundMeters(p, ring)
			if bestD <= ringDist {
				return best, bestD
			}
		}
	}
	return best, bestD
}

// ringLowerBoundMeters returns a lower bound on the distance from p to any
// cell in ring ring+1 or beyond.
func (idx *Index) ringLowerBoundMeters(p geo.Point, ring int) float64 {
	// Distance to the edge of the explored square, conservatively using the
	// smaller of the two cell dimensions in meters.
	latMeters := idx.cellH * 111320
	lonMeters := idx.cellW * 111320 * math.Cos(p.Lat*math.Pi/180)
	cell := math.Min(math.Abs(latMeters), math.Abs(lonMeters))
	return float64(ring) * cell
}

// NearestWithin returns the closest vertex to p if it lies within maxMeters,
// otherwise (InvalidNode, +Inf).
func (idx *Index) NearestWithin(p geo.Point, maxMeters float64) (graph.NodeID, float64) {
	v, d := idx.Nearest(p)
	if d > maxMeters {
		return graph.InvalidNode, math.Inf(1)
	}
	return v, d
}

// NumCells returns the number of grid cells (rows × cols). Cell ids are
// row-major in [0, NumCells).
func (idx *Index) NumCells() int { return idx.rows * idx.cols }

// CellOf returns the row-major id of the cell containing p (clamped to
// the border cells for points outside the indexed bounding box).
func (idx *Index) CellOf(p geo.Point) int { return idx.cellOf(p) }

// CellNodes returns the vertices stored in cell c. The slice is owned by
// the index and must not be modified.
func (idx *Index) CellNodes(c int) []graph.NodeID { return idx.cells[c] }

// cellRect returns cell c's coordinate rectangle. Border cells extend to
// the index bounding box, so every vertex assigned to a cell (including
// clamped boundary points) lies inside its rect up to float rounding.
func (idx *Index) cellRect(c int) geo.BBox {
	r, cc := c/idx.cols, c%idx.cols
	b := geo.BBox{
		MinLat: idx.bbox.MinLat + float64(r)*idx.cellH,
		MinLon: idx.bbox.MinLon + float64(cc)*idx.cellW,
	}
	b.MaxLat = b.MinLat + idx.cellH
	b.MaxLon = b.MinLon + idx.cellW
	if r == idx.rows-1 && b.MaxLat < idx.bbox.MaxLat {
		b.MaxLat = idx.bbox.MaxLat
	}
	if cc == idx.cols-1 && b.MaxLon < idx.bbox.MaxLon {
		b.MaxLon = idx.bbox.MaxLon
	}
	return b
}

// minLBToRect lower-bounds lb.MetersLB(p, q) over all q in rect. MetersLB
// is monotone in each absolute coordinate difference, so the minimum over
// the rectangle is attained at p clamped into it per axis.
func minLBToRect(lb geo.LowerBounder, p geo.Point, rect geo.BBox) float64 {
	q := p
	if q.Lat < rect.MinLat {
		q.Lat = rect.MinLat
	} else if q.Lat > rect.MaxLat {
		q.Lat = rect.MaxLat
	}
	if q.Lon < rect.MinLon {
		q.Lon = rect.MinLon
	} else if q.Lon > rect.MaxLon {
		q.Lon = rect.MaxLon
	}
	return lb.MetersLB(p, q)
}

// cellRectEps pads cell rects by this many degrees before the ellipse
// test, absorbing the float rounding of cellOf's division against
// cellRect's multiplication. Enlarged rects only lower the bound, so the
// padding keeps the covering conservative.
const cellRectEps = 1e-12

// EllipseCells appends to dst (reusing its backing) the ids of every
// non-empty cell that can contain a vertex v with
// lb.MetersLB(s,v) + lb.MetersLB(v,t) ≤ budgetMeters — a conservative
// cell-union covering of the elliptic region between s and t: each cell
// is admitted on the rectangle-clamped lower bounds, so no qualifying
// vertex is ever excluded (the union is a superset of the ellipse). Ids
// come out in ascending row-major order, which makes the result directly
// usable as a canonical cell signature.
func (idx *Index) EllipseCells(s, t geo.Point, budgetMeters float64, lb geo.LowerBounder, dst []int32) []int32 {
	dst = dst[:0]
	for c := range idx.cells {
		if len(idx.cells[c]) == 0 {
			continue
		}
		rect := idx.cellRect(c)
		rect.MinLat -= cellRectEps
		rect.MinLon -= cellRectEps
		rect.MaxLat += cellRectEps
		rect.MaxLon += cellRectEps
		if minLBToRect(lb, s, rect)+minLBToRect(lb, t, rect) <= budgetMeters {
			dst = append(dst, int32(c))
		}
	}
	return dst
}
