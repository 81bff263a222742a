// Package geo provides geodesic primitives used throughout the road-network
// stack: points in WGS84 coordinates, haversine distances, bearings,
// bounding boxes and simple polyline utilities.
//
// All distances are in meters, all angles in degrees unless stated
// otherwise.
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// EarthRadiusMeters is the mean Earth radius used by the haversine formula.
const EarthRadiusMeters = 6371000.0

// Point is a WGS84 coordinate pair.
type Point struct {
	Lat float64 // latitude in degrees, positive north
	Lon float64 // longitude in degrees, positive east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies within the WGS84 domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// ParsePoint parses "lat,lon": two finite numbers separated by one comma,
// each optionally surrounded by spaces, with nothing after the second.
// The point must be Valid.
func ParsePoint(s string) (Point, error) {
	var v [2]float64
	if !parseFloats(s, v[:]) {
		return Point{}, fmt.Errorf("geo: bad coordinate %q (want lat,lon)", s)
	}
	p := Point{Lat: v[0], Lon: v[1]}
	if !p.Valid() {
		return Point{}, fmt.Errorf("geo: coordinate %q out of range", s)
	}
	return p, nil
}

// parseFloats fills out from s: len(out) finite numbers separated by
// commas, each optionally surrounded by spaces, and nothing after the
// last. It reports whether s has that form.
func parseFloats(s string, out []float64) bool {
	for i := range out {
		field := s
		if i < len(out)-1 {
			var ok bool
			if field, s, ok = strings.Cut(s, ","); !ok {
				return false
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		out[i] = v
	}
	return true
}

// Radians returns the latitude and longitude converted to radians.
func (p Point) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// Haversine returns the great-circle distance in meters between a and b.
func Haversine(a, b Point) float64 {
	lat1, lon1 := a.Radians()
	lat2, lon2 := b.Radians()
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp to guard against floating-point drift slightly above 1.
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(s))
}

// Bearing returns the initial great-circle bearing from a to b in degrees,
// normalized to [0, 360).
func Bearing(a, b Point) float64 {
	lat1, lon1 := a.Radians()
	lat2, lon2 := b.Radians()
	dLon := lon2 - lon1
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	deg := math.Atan2(y, x) * 180 / math.Pi
	deg = math.Mod(deg+360, 360)
	return deg
}

// TurnAngle returns the absolute change of direction, in degrees within
// [0, 180], experienced when traveling a->b->c. 0 means straight ahead,
// 180 means a full U-turn.
func TurnAngle(a, b, c Point) float64 {
	in := Bearing(a, b)
	out := Bearing(b, c)
	d := math.Abs(out - in)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Midpoint returns the arithmetic midpoint of a and b. For the city-scale
// extents used in this project the planar approximation is sufficient.
func Midpoint(a, b Point) Point {
	return Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
}

// Offset returns the point reached from p by moving the given distances
// north and east (meters). Negative values move south/west. Uses the local
// tangent-plane approximation, accurate at city scale.
func Offset(p Point, northMeters, eastMeters float64) Point {
	dLat := northMeters / EarthRadiusMeters * 180 / math.Pi
	latRad := p.Lat * math.Pi / 180
	dLon := eastMeters / (EarthRadiusMeters * math.Cos(latRad)) * 180 / math.Pi
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// BBox is an axis-aligned bounding box in WGS84 coordinates.
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// ParseBBox parses "minLat,minLon,maxLat,maxLon" under ParsePoint's
// rule: four finite numbers and nothing after the fourth.
func ParseBBox(s string) (BBox, error) {
	var v [4]float64
	if !parseFloats(s, v[:]) {
		return BBox{}, fmt.Errorf("geo: bad bounding box %q (want minLat,minLon,maxLat,maxLon)", s)
	}
	return BBox{MinLat: v[0], MinLon: v[1], MaxLat: v[2], MaxLon: v[3]}, nil
}

// NewBBox returns the smallest box containing all the given points.
// It panics if pts is empty.
func NewBBox(pts ...Point) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox requires at least one point")
	}
	b := BBox{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLon: pts[0].Lon, MaxLon: pts[0].Lon,
	}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the box grown to include p.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// WidthMeters returns the east-west extent of the box at its central
// latitude, in meters.
func (b BBox) WidthMeters() float64 {
	c := b.Center()
	return Haversine(Point{c.Lat, b.MinLon}, Point{c.Lat, b.MaxLon})
}

// HeightMeters returns the north-south extent of the box in meters.
func (b BBox) HeightMeters() float64 {
	return Haversine(Point{b.MinLat, b.MinLon}, Point{b.MaxLat, b.MinLon})
}

// PolylineLength returns the summed haversine length, in meters, of the
// polyline through pts. A polyline with fewer than two points has length 0.
func PolylineLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Haversine(pts[i-1], pts[i])
	}
	return total
}

// LowerBounder produces fast, provably admissible lower bounds on the
// haversine distance between points inside a fixed bounding box. It is
// built for goal-directed search pruning (sp.BuildPrunedTree), where the
// bound is evaluated once per edge relaxation and the full trigonometric
// haversine would dominate the search: MetersLB costs one square root.
//
// Derivation: haversine(a,b) = 2R·asin(√s) with
// s = sin²(Δφ/2) + cosφa·cosφb·sin²(Δλ/2). Using asin(x) ≥ x,
// sin(x) ≥ x·(1 − x²ₘₐₓ/6) for 0 ≤ x ≤ xₘₐₓ, and cosφ ≥ cosφₘₐₓ over the
// box's latitude range, every factor is replaced by a precomputed
// constant, leaving R·k·√(Δφ² + c²·Δλ²) ≤ haversine(a,b) for all a, b in
// the box. At city scale k is within 10⁻⁵ of 1, so the bound loses
// essentially no pruning power.
type LowerBounder struct {
	k float64 // R × sinc correction, meters per radian
	c float64 // min cos(lat) over the box
}

// NewLowerBounder derives the bound constants for points within bbox.
func NewLowerBounder(bbox BBox) LowerBounder {
	maxAbsLat := math.Max(math.Abs(bbox.MinLat), math.Abs(bbox.MaxLat))
	c := math.Cos(maxAbsLat * math.Pi / 180)
	if c < 0 {
		c = 0
	}
	// Largest half-angle either sin() argument can take inside the box.
	span := math.Max(bbox.MaxLat-bbox.MinLat, bbox.MaxLon-bbox.MinLon)
	xmax := span * math.Pi / 180 / 2
	sinc := 1 - xmax*xmax/6
	if sinc < 0 {
		sinc = 0
	}
	return LowerBounder{k: EarthRadiusMeters * sinc, c: c}
}

// MetersLB returns a lower bound on Haversine(a, b), valid whenever both
// points lie inside the bounder's box.
func (lb LowerBounder) MetersLB(a, b Point) float64 {
	dLat := (b.Lat - a.Lat) * (math.Pi / 180)
	dLon := (b.Lon - a.Lon) * (math.Pi / 180) * lb.c
	return lb.k * math.Sqrt(dLat*dLat+dLon*dLon)
}
