package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Melbourne CBD and Monash Clayton campus, ~18.5 km apart.
var (
	melbCBD = Point{Lat: -37.8136, Lon: 144.9631}
	monash  = Point{Lat: -37.9105, Lon: 145.1362}
	dhaka   = Point{Lat: 23.8103, Lon: 90.4125}
	cph     = Point{Lat: 55.6761, Lon: 12.5683}
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Point
		wantKM  float64
		slackKM float64
	}{
		{"zero", melbCBD, melbCBD, 0, 0.0001},
		{"melbourne-monash", melbCBD, monash, 18.5, 1.0},
		{"dhaka-copenhagen", dhaka, cph, 7100, 150},
		{"one-degree-equator", Point{0, 0}, Point{0, 1}, 111.19, 0.2},
		{"one-degree-meridian", Point{0, 0}, Point{1, 0}, 111.19, 0.2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Haversine(tc.a, tc.b) / 1000
			if math.Abs(got-tc.wantKM) > tc.slackKM {
				t.Errorf("Haversine(%v, %v) = %.2f km, want %.2f±%.2f km",
					tc.a, tc.b, got, tc.wantKM, tc.slackKM)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	if err := quick.Check(func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineNonNegativeAndIdentity(t *testing.T) {
	if err := quick.Check(func(lat, lon float64) bool {
		p := Point{clampLat(lat), clampLon(lon)}
		return Haversine(p, p) == 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	if err := quick.Check(func(l1, g1, l2, g2, l3, g3 float64) bool {
		a := Point{clampLat(l1), clampLon(g1)}
		b := Point{clampLat(l2), clampLon(g2)}
		c := Point{clampLat(l3), clampLon(g3)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 180)
}

func TestBearingCardinal(t *testing.T) {
	origin := Point{0, 0}
	tests := []struct {
		name string
		to   Point
		want float64
	}{
		{"north", Point{1, 0}, 0},
		{"east", Point{0, 1}, 90},
		{"south", Point{-1, 0}, 180},
		{"west", Point{0, -1}, 270},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Bearing(origin, tc.to)
			if math.Abs(got-tc.want) > 0.01 {
				t.Errorf("Bearing to %s = %.3f, want %.3f", tc.name, got, tc.want)
			}
		})
	}
}

func TestBearingRange(t *testing.T) {
	if err := quick.Check(func(l1, g1, l2, g2 float64) bool {
		a := Point{clampLat(l1), clampLon(g1)}
		b := Point{clampLat(l2), clampLon(g2)}
		if a == b {
			return true
		}
		br := Bearing(a, b)
		return br >= 0 && br < 360
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTurnAngle(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 0.01}
	tests := []struct {
		name string
		c    Point
		want float64
	}{
		{"straight", Point{0, 0.02}, 0},
		{"left-90", Point{0.01, 0.01}, 90},
		{"right-90", Point{-0.01, 0.01}, 90},
		{"u-turn", Point{0, 0}, 180},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := TurnAngle(a, b, tc.c)
			if math.Abs(got-tc.want) > 0.5 {
				t.Errorf("TurnAngle %s = %.2f, want %.2f", tc.name, got, tc.want)
			}
		})
	}
}

func TestTurnAngleRange(t *testing.T) {
	if err := quick.Check(func(l1, g1, l2, g2, l3, g3 float64) bool {
		a := Point{clampLat(l1), clampLon(g1)}
		b := Point{clampLat(l2), clampLon(g2)}
		c := Point{clampLat(l3), clampLon(g3)}
		ang := TurnAngle(a, b, c)
		return ang >= 0 && ang <= 180
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	// Moving north then measuring should give back approximately the distance.
	for _, d := range []float64{10, 100, 1000, 5000} {
		q := Offset(melbCBD, d, 0)
		got := Haversine(melbCBD, q)
		if math.Abs(got-d) > d*0.01+0.5 {
			t.Errorf("Offset north %.0fm: haversine %.2fm", d, got)
		}
		q = Offset(melbCBD, 0, d)
		got = Haversine(melbCBD, q)
		if math.Abs(got-d) > d*0.01+0.5 {
			t.Errorf("Offset east %.0fm: haversine %.2fm", d, got)
		}
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(melbCBD, monash)
	if !b.Contains(melbCBD) || !b.Contains(monash) {
		t.Fatal("bbox must contain its defining points")
	}
	if !b.Contains(Midpoint(melbCBD, monash)) {
		t.Error("bbox must contain midpoint")
	}
	if b.Contains(dhaka) {
		t.Error("melbourne bbox should not contain dhaka")
	}
	c := b.Center()
	if !b.Contains(c) {
		t.Error("bbox must contain its own center")
	}
	if b.WidthMeters() <= 0 || b.HeightMeters() <= 0 {
		t.Error("non-degenerate bbox must have positive extent")
	}
}

func TestBBoxExtendIsMonotone(t *testing.T) {
	if err := quick.Check(func(l1, g1, l2, g2 float64) bool {
		a := Point{clampLat(l1), clampLon(g1)}
		p := Point{clampLat(l2), clampLon(g2)}
		b := NewBBox(a).Extend(p)
		return b.Contains(a) && b.Contains(p)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestNewBBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBBox() with no points should panic")
		}
	}()
	NewBBox()
}

func TestPolylineLength(t *testing.T) {
	if got := PolylineLength(nil); got != 0 {
		t.Errorf("empty polyline length = %f, want 0", got)
	}
	if got := PolylineLength([]Point{melbCBD}); got != 0 {
		t.Errorf("single-point polyline length = %f, want 0", got)
	}
	direct := Haversine(melbCBD, monash)
	viaMid := PolylineLength([]Point{melbCBD, Midpoint(melbCBD, monash), monash})
	if viaMid < direct-1 {
		t.Errorf("polyline through midpoint (%f) shorter than direct (%f)", viaMid, direct)
	}
	// A dog-leg must be strictly longer than the direct leg.
	dog := PolylineLength([]Point{melbCBD, Offset(melbCBD, 5000, 5000), monash})
	if dog <= direct {
		t.Errorf("dog-leg (%f) should exceed direct (%f)", dog, direct)
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {-90, 180}, {90, -180}, melbCBD, dhaka, cph}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {0, 181}, {-95, 0}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func BenchmarkHaversine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Haversine(melbCBD, monash)
	}
}

func TestLowerBounderAdmissibleAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		// Random city-scale box anywhere up to |lat| 70°.
		lat := rng.Float64()*140 - 70
		lon := rng.Float64()*360 - 180
		span := 0.01 + rng.Float64()*0.4 // degrees, up to ~44 km
		bbox := BBox{MinLat: lat, MinLon: lon, MaxLat: lat + span, MaxLon: lon + span}
		lb := NewLowerBounder(bbox)
		for i := 0; i < 200; i++ {
			a := Point{Lat: lat + rng.Float64()*span, Lon: lon + rng.Float64()*span}
			b := Point{Lat: lat + rng.Float64()*span, Lon: lon + rng.Float64()*span}
			h := Haversine(a, b)
			got := lb.MetersLB(a, b)
			if got > h+1e-9 {
				t.Fatalf("trial %d: bound %f exceeds haversine %f for %v-%v (box %+v)", trial, got, h, a, b, bbox)
			}
			// The bound should stay useful: within 5% at city scale.
			if h > 1 && got < 0.95*h {
				t.Fatalf("trial %d: bound %f too loose vs haversine %f for %v-%v", trial, got, h, a, b)
			}
		}
	}
}

// TestParsePoint pins the coordinate grammar shared by /api/routes and
// the commands: two numbers, nothing after the second, inside WGS84.
func TestParsePoint(t *testing.T) {
	tests := []struct {
		in   string
		want Point
		ok   bool
	}{
		{"55.67,12.56", Point{55.67, 12.56}, true},
		{"55.67, 12.56", Point{55.67, 12.56}, true}, // spaced
		{" -37.9 , 144.85 ", Point{-37.9, 144.85}, true},
		{"55.67,12.56junk", Point{}, false}, // trailing input
		{"55.67,12.56,99", Point{}, false},  // a third number
		{"NaN,12.59", Point{}, false},       // not a coordinate
		{"55.67,Inf", Point{}, false},
		{"999,12", Point{}, false}, // out of range
		{"55.67", Point{}, false},
		{"55.67,", Point{}, false},
		{"junk", Point{}, false},
		{"", Point{}, false},
	}
	for _, tc := range tests {
		got, err := ParsePoint(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePoint(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestParseBBox pins the same grammar with four numbers.
func TestParseBBox(t *testing.T) {
	tests := []struct {
		in   string
		want BBox
		ok   bool
	}{
		{"55.6,12.5,55.7,12.6", BBox{55.6, 12.5, 55.7, 12.6}, true},
		{"55.6, 12.5, 55.7, 12.6", BBox{55.6, 12.5, 55.7, 12.6}, true},
		{"55.6,12.5,55.7,12.6junk", BBox{}, false},
		{"55.6,12.5,55.7,12.6,1", BBox{}, false},
		{"55.6,12.5,NaN,12.6", BBox{}, false},
		{"55.6,12.5,55.7", BBox{}, false},
	}
	for _, tc := range tests {
		got, err := ParseBBox(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBBox(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
