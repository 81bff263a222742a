package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The four workloads. Names are fixed: later issues cite them.
const (
	wlRoutesUnique = "routes_unique"
	wlRoutesHot    = "routes_hot"
	wlMatrixMixed  = "matrix_mixed"
	wlLiveTraffic  = "live_traffic"
)

// Load model: closed loop, one client on one keep-alive connection
// (live_traffic adds its writer). Fixed rather than derived from nproc so
// that results from boxes of different width stay comparable, and one
// because the sandbox has two cores and the server's planner fan-out
// already fills both: with a second client the generator and the server
// queued behind each other and the same commit's throughput spread by a
// quarter from run to run (README: "Why these bounds").
const numClients = 1

const (
	minSeparationM = 800.0  // routes: s and t at least this far apart
	hotPairs       = 64     // routes_hot: pairs per city (192 entries < the 4096-entry cache)
	zipfExponent   = 1.1    // routes_hot: popularity skew over the hot pairs
	numCentres     = 16     // matrix_mixed: recurring cluster centres per city
	clusterRadiusM = 1500.0 // matrix_mixed: clustered points lie this close to their centre
	// banEdgeRange bounds the seeded edge ids of public closures. The
	// generator only sees bounding boxes, so it cannot ask for the edge
	// count; every city has more edges than this.
	banEdgeRange = 16384
	// stormEdges is the batch size of an incident-storm observation step.
	stormEdges = 32
	// layoutSeed fixes the recurring structures of the workloads — the
	// hot pairs, the cluster centres, the freshness probe pairs — as part
	// of their definition. The run seed decides which requests are drawn
	// from them and in what order. Were the 64 hot pairs themselves drawn
	// from the run seed, the few pairs at the head of the Zipf curve
	// would set the mean response size, and a metric's spread over seeds
	// would measure that luck instead of the server.
	layoutSeed = 0x6c61796f7574
)

// matrixShapes is the matrix_mixed shape mix, in slots of a 20-request
// cycle: 10 % clustered k=4, 10 % spread k=4, 40 % clustered k=16, 25 %
// spread k=16, 15 % spread k=64. Shares are chosen so the p50 and the
// p90 of the latency distribution each fall at least 10 points of
// cumulative share inside one shape's mode (see README).
var matrixShapes = []struct {
	slots     int
	name      string
	k         int
	clustered bool
}{
	{2, "clustered_k4", 4, true},
	{2, "spread_k4", 4, false},
	{8, "clustered_k16", 16, true},
	{5, "spread_k16", 16, false},
	{3, "spread_k64", 64, false},
}

const (
	matrixCycle = 20 // slots of matrixShapes
	liveCycle   = 10 // live_traffic reader: 3 hot-set requests in every 10
	liveHot     = 3
)

// writerPattern is the live_traffic writer's 8-tick cycle: five
// rush-hour publishes, two incident-storm observation batches, one
// public closure.
var writerPattern = [8]reqKind{
	kindPublish, kindPublish, kindObservations, kindPublish,
	kindPublish, kindObservations, kindPublish, kindBan,
}

type reqKind uint8

const (
	kindRoutes reqKind = iota
	kindMatrix
	kindPublish
	kindObservations
	kindBan
	kindMetrics
)

// city is one entry of GET /api/cities — all the generator ever learns
// about the server's networks.
type city struct {
	Name   string  `json:"name"`
	MinLat float64 `json:"minLat"`
	MinLon float64 `json:"minLon"`
	MaxLat float64 `json:"maxLat"`
	MaxLon float64 `json:"maxLon"`
}

type point struct{ Lat, Lon float64 }

// rounded returns p at the six decimals requests carry, so that the
// stage replay snaps the same coordinates the server parses.
func (p point) rounded() point {
	return point{math.Round(p.Lat*1e6) / 1e6, math.Round(p.Lon*1e6) / 1e6}
}

type pair struct{ S, T point }

// request is one generated HTTP request plus what the checks need to
// know about it.
type request struct {
	Kind   reqKind
	Method string
	Path   string // path and query
	Body   string
	City   int
	// HotKey identifies a repeating routes URL (index into the hot set
	// across cities), -1 for a never-repeated one.
	HotKey int
	// K is the matrix side (k×k table), Shape its name in matrixShapes.
	K     int
	Shape string
	// The coordinates behind Path/Body, for the traced run's stage replay.
	Pair             pair
	Sources, Targets []point
}

// phase separates the request streams of one run: warm-up requests are
// disjoint from the measured ones by construction.
type phase uint64

const (
	phaseWarm phase = iota + 1
	phaseMeasure
)

// rng is splitmix64. Requests are generated by random access — request
// i of a stream is a pure function of (seed, workload, phase, client, i)
// — and seeding math/rand per request would cost more than a cached
// /api/routes round trip.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream from the run seed and a list of
// stream coordinates.
func newRNG(seed uint64, coords ...uint64) rng {
	r := rng(seed)
	for _, c := range coords {
		r = rng(r.next() ^ (c * 0xd6e8feb86659fd93))
	}
	r.next()
	return r
}

// workload generates the request streams of one named workload.
type workload struct {
	name   string
	id     uint64
	seed   uint64
	cities []city
	hot    [][]pair  // [city][rank]
	zipf   []float64 // cumulative popularity over ranks
	centre [][]point // [city][centre]
}

// Streams of layoutSeed.
const (
	streamHot = 100 + iota
	streamCentre
	streamProbe
)

func newWorkload(name string, seed uint64, cities []city) (*workload, error) {
	w := &workload{name: name, seed: seed, cities: cities}
	for i, spec := range workloadSpecs {
		if spec.Name == name {
			w.id = uint64(i + 1)
		}
	}
	if w.id == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if len(cities) == 0 {
		return nil, fmt.Errorf("workload %s: no cities", name)
	}
	for ci, c := range cities {
		r := newRNG(layoutSeed, streamHot, uint64(ci))
		set := make([]pair, hotPairs)
		for i := range set {
			set[i] = drawPair(&r, c)
		}
		w.hot = append(w.hot, set)

		r = newRNG(layoutSeed, streamCentre, uint64(ci))
		cs := make([]point, numCentres)
		for i := range cs {
			cs[i] = uniformPoint(&r, c)
		}
		w.centre = append(w.centre, cs)
	}
	w.zipf = zipfCDF(hotPairs, zipfExponent)
	return w, nil
}

// request returns request i of one client's stream in the given phase.
func (w *workload) request(ph phase, client, i int) request {
	global := i*numClients + client
	ci := global % len(w.cities)
	r := newRNG(w.seed, w.id, uint64(ph), uint64(client), uint64(i))
	switch w.name {
	case wlRoutesHot:
		if ph == phaseWarm && global < hotPairs*len(w.cities) {
			// The warm-up touches every hot pair once, so the measured
			// window starts with the whole set cached.
			return w.hotRequest(ci, global/len(w.cities))
		}
		return w.hotRequest(ci, w.zipfRank(&r))
	case wlMatrixMixed:
		slot := w.slot(ph, client, i, matrixCycle)
		for _, shape := range matrixShapes {
			if slot < shape.slots {
				return w.matrixShaped(&r, ci, shape.name, shape.k, shape.clustered)
			}
			slot -= shape.slots
		}
	case wlLiveTraffic:
		// 70/30 so the median sits inside the miss mode.
		if w.slot(ph, client, i, liveCycle) < liveHot {
			return w.hotRequest(ci, w.zipfRank(&r))
		}
	}
	return routesRequest(w.cities[ci].Name, ci, drawPair(&r, w.cities[ci]), -1)
}

func (w *workload) hotRequest(ci, rank int) request {
	return routesRequest(w.cities[ci].Name, ci, w.hot[ci][rank], ci*hotPairs+rank)
}

func (w *workload) zipfRank(r *rng) int {
	return sort.SearchFloat64s(w.zipf, r.float())
}

// probeRequest is the fixed request of city ci that set-up sends once
// and the live_traffic writer polls until a write becomes visible.
func probeRequest(cities []city, ci int) request {
	r := newRNG(layoutSeed, streamProbe, uint64(ci))
	return routesRequest(cities[ci].Name, ci, drawPair(&r, cities[ci]), -1)
}

var metricsRequest = request{Kind: kindMetrics, Method: "GET", Path: "/metrics", HotKey: -1}

// writerStream generates the live_traffic writer's ticks in order,
// counting each city's incident-storm steps.
type writerStream struct {
	w       *workload
	obsStep []int
}

func (w *workload) writer() *writerStream {
	return &writerStream{w: w, obsStep: make([]int, len(w.cities))}
}

// tick returns the write of tick n; ticks must be asked for in order.
// Cities cycle with period 3 and the pattern with period 8, so every
// city sees every kind of write.
func (ws *writerStream) tick(n int) request {
	w := ws.w
	ci := n % len(w.cities)
	if writerPattern[n%len(writerPattern)] == kindObservations {
		ws.obsStep[ci]++
	}
	obsStep := ws.obsStep[ci]
	name := w.cities[ci].Name
	req := request{Kind: writerPattern[n%len(writerPattern)], Method: "POST", City: ci, HotKey: -1}
	switch req.Kind {
	case kindPublish:
		req.Path = "/api/publish?city=" + name
	case kindObservations:
		req.Path = "/api/observations"
		req.Body = fmt.Sprintf(`{"city":%q,"scenario":"incident-storm","seed":%d,"step":%d,"edges":%d}`,
			name, w.seed%(1<<31), obsStep, stormEdges)
	case kindBan:
		r := newRNG(w.seed, w.id, uint64(kindBan), uint64(n))
		req.Path = fmt.Sprintf("/api/publish?city=%s&step=0&ban=%d", name, r.intn(banEdgeRange))
	}
	return req
}

func routesRequest(name string, ci int, p pair, hotKey int) request {
	return request{
		Kind:   kindRoutes,
		Method: "GET",
		Path: fmt.Sprintf("/api/routes?city=%s&s=%.6f,%.6f&t=%.6f,%.6f",
			name, p.S.Lat, p.S.Lon, p.T.Lat, p.T.Lon),
		City:   ci,
		HotKey: hotKey,
		Pair:   p,
	}
}

// slot says which of a cycle's n slots request i of a stream falls
// into. Every n consecutive requests of a stream are a seeded
// permutation of the n slots, so a window of any length holds each kind
// of request in its exact share: drawn independently, the share of the
// expensive kind would wobble from seed to seed and drag the latency
// percentiles and the bytes per request along.
func (w *workload) slot(ph phase, client, i, n int) int {
	const streamCycle = 300
	r := newRNG(w.seed, w.id, streamCycle, uint64(ph), uint64(client), uint64(i/n))
	var perm [matrixCycle]int
	for j := 0; j < n; j++ {
		perm[j] = j
	}
	for j := n - 1; j > 0; j-- {
		k := r.intn(j + 1)
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm[i%n]
}

// matrixShaped builds one k×k matrix request: clustered draws every
// point within clusterRadiusM of one of the city's recurring centres
// (small selection), spread draws them uniformly in the bounding box
// (a selection over up to 64 cells, still below the auto cut-over).
func (w *workload) matrixShaped(r *rng, ci int, shape string, k int, clustered bool) request {
	c := w.cities[ci]
	draw := func() point { return uniformPoint(r, c) }
	if clustered {
		centre := w.centre[ci][r.intn(numCentres)]
		draw = func() point { return nearPoint(r, c, centre, clusterRadiusM) }
	}
	req := request{Kind: kindMatrix, Method: "POST", Path: "/api/matrix", City: ci, HotKey: -1, K: k, Shape: shape}
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"city":%q,"sources":[`, c.Name)
	req.Sources = writePoints(&sb, draw, k)
	sb.WriteString(`],"targets":[`)
	req.Targets = writePoints(&sb, draw, k)
	sb.WriteString(`]}`)
	req.Body = sb.String()
	return req
}

// writePoints draws k points, appends them to sb as JSON [lat,lon]
// pairs and returns them as the server will parse them back.
func writePoints(sb *strings.Builder, draw func() point, k int) []point {
	pts := make([]point, k)
	for i := range pts {
		if i > 0 {
			sb.WriteByte(',')
		}
		pts[i] = draw().rounded()
		fmt.Fprintf(sb, "[%.6f,%.6f]", pts[i].Lat, pts[i].Lon)
	}
	return pts
}

func uniformPoint(r *rng, c city) point {
	return point{
		Lat: c.MinLat + r.float()*(c.MaxLat-c.MinLat),
		Lon: c.MinLon + r.float()*(c.MaxLon-c.MinLon),
	}
}

// drawPair draws a uniform (s,t) in the bounding box, redrawing t until
// the two are at least minSeparationM apart.
func drawPair(r *rng, c city) pair {
	s := uniformPoint(r, c)
	for {
		t := uniformPoint(r, c)
		if haversineM(s, t) >= minSeparationM {
			return pair{s.rounded(), t.rounded()}
		}
	}
}

// nearPoint draws a point uniformly in the disc of the given radius
// around centre, clamped to the city's bounding box.
func nearPoint(r *rng, c city, centre point, radiusM float64) point {
	const mPerDegLat = 111320.0
	d := radiusM * math.Sqrt(r.float())
	a := 2 * math.Pi * r.float()
	p := point{
		Lat: centre.Lat + d*math.Sin(a)/mPerDegLat,
		Lon: centre.Lon + d*math.Cos(a)/(mPerDegLat*math.Cos(centre.Lat*math.Pi/180)),
	}
	p.Lat = math.Min(math.Max(p.Lat, c.MinLat), c.MaxLat)
	p.Lon = math.Min(math.Max(p.Lon, c.MinLon), c.MaxLon)
	return p
}

func haversineM(a, b point) float64 {
	const earthRadiusM = 6371000.0
	rad := math.Pi / 180
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(a.Lat*rad)*math.Cos(b.Lat*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusM * math.Asin(math.Sqrt(h))
}

// zipfCDF returns the cumulative distribution of Zipf(s) over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}
