// Package server implements the web-based demonstration system of §III:
// a browser UI where a user picks source and target on a city map, sees up
// to three routes from each of the four (blinded) approaches, and submits
// a 1–5 rating per approach plus a residency flag (Figs. 2 and 3 of the
// paper).
//
// The paper's demo plots routes on Google Maps; offline, the UI renders
// the road network and routes on an SVG canvas instead. The query
// processor is the same three-step pipeline: geo-coordinate matching to
// the nearest vertices, alternative-route computation by every approach,
// and travel-time display using the public OSM-derived weights.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/path"
)

// Blinded display labels, fixed as in the paper: "The approaches are named
// A-D (A: Google Maps, B: Plateaus, C: Dissimilarity and D: Penalty)."
var displayLabels = [eval.NumApproaches]string{"A", "B", "C", "D"}

// Server serves the demo UI and API for one or more cities.
type Server struct {
	mux    *http.ServeMux
	cities map[string]*eval.City

	// registry backs GET /metrics when WithMetrics was given; nil
	// otherwise.
	registry *metrics.Registry
	// verbose turns on the per-query log lines of the hot handlers
	// (WithVerbose); errors are logged regardless.
	verbose bool
	// ingest registers POST /api/observations (WithIngest).
	ingest bool

	mu        sync.Mutex
	ratings   []RatingSubmission
	storePath string // optional JSON file the ratings are appended to
}

// RatingSubmission is one submitted feedback form (Fig. 3).
type RatingSubmission struct {
	City     string    `json:"city"`
	Resident bool      `json:"resident"`
	Ratings  [4]int    `json:"ratings"` // A-D display order
	Comment  string    `json:"comment,omitempty"`
	Time     time.Time `json:"time"`
}

// New creates a demo server over the given cities. storePath, if
// non-empty, is a JSON file ratings are persisted to. Options add the
// observability surfaces (WithMetrics, WithIngest, WithVerbose).
func New(cities map[string]*eval.City, storePath string, opts ...Option) *Server {
	s := &Server{
		mux:       http.NewServeMux(),
		cities:    cities,
		storePath: storePath,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/cities", s.handleCities)
	s.mux.HandleFunc("GET /api/network", s.handleNetwork)
	s.mux.HandleFunc("GET /api/routes", s.handleRoutes)
	s.mux.HandleFunc("POST /api/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /api/rating", s.handleRating)
	s.mux.HandleFunc("POST /api/publish", s.handlePublish)
	s.mux.HandleFunc("GET /api/traffic", s.handleTraffic)
	if s.registry != nil {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.ingest {
		s.mux.HandleFunc("POST /api/observations", s.handleObservations)
	}
	return s
}

// handleMetrics serves the Prometheus text exposition of everything the
// serving stack measures: per-query latency histograms per planner,
// cache hit rates, customization latency, selection sizes, matrix table
// shapes, plus the scrape-time counters (store versions, publish
// counts, selection-cache totals, ingest state).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if _, err := s.registry.WriteTo(w); err != nil {
		log.Printf("server: writing metrics: %v", err)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Ratings returns a copy of the submissions received so far.
func (s *Server) Ratings() []RatingSubmission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RatingSubmission(nil), s.ratings...)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func (s *Server) handleCities(w http.ResponseWriter, _ *http.Request) {
	type cityInfo struct {
		Name   string  `json:"name"`
		MinLat float64 `json:"minLat"`
		MinLon float64 `json:"minLon"`
		MaxLat float64 `json:"maxLat"`
		MaxLon float64 `json:"maxLon"`
	}
	var out []cityInfo
	for _, name := range []string{"Melbourne", "Dhaka", "Copenhagen"} {
		c, ok := s.cities[name]
		if !ok {
			continue
		}
		bb := c.Graph.BBox()
		out = append(out, cityInfo{name, bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon})
	}
	writeJSON(w, out)
}

// handleNetwork returns a decimated line sample of the road network for
// background rendering.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	c, ok := s.cities[r.URL.Query().Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	type seg struct {
		A [2]float64 `json:"a"`
		B [2]float64 `json:"b"`
		C int        `json:"c"` // 0 street, 1 arterial, 2 motorway
	}
	var segs []seg
	step := 1
	if c.Graph.NumEdges() > 30000 {
		step = c.Graph.NumEdges() / 30000
	}
	for e := 0; e < c.Graph.NumEdges(); e += step {
		ed := c.Graph.Edge(graph.EdgeID(e))
		a := c.Graph.Point(ed.From)
		b := c.Graph.Point(ed.To)
		cls := 0
		switch ed.Class {
		case graph.Motorway, graph.MotorwayLink:
			cls = 2
		case graph.Trunk, graph.Primary, graph.Secondary:
			cls = 1
		}
		segs = append(segs, seg{A: [2]float64{a.Lat, a.Lon}, B: [2]float64{b.Lat, b.Lon}, C: cls})
	}
	writeJSON(w, segs)
}

// routeJSON is one displayed route.
type routeJSON struct {
	Points  [][2]float64 `json:"points"`
	Minutes float64      `json:"minutes"`
	KM      float64      `json:"km"`
}

// handleRoutes is the query processor endpoint: it matches the clicked
// coordinates to graph vertices, runs all four approaches and returns
// their routes with OSM travel times, blinded as approaches A–D.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	c, ok := s.cities[q.Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	sp, err := geo.ParsePoint(q.Get("s"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "s: "+err.Error())
		return
	}
	tp, err := geo.ParsePoint(q.Get("t"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "t: "+err.Error())
		return
	}
	// Geo-coordinate matching (query processor step 1).
	sv, _ := c.Index.Nearest(sp)
	tv, _ := c.Index.Nearest(tp)
	if sv == tv {
		httpError(w, http.StatusBadRequest, "source and target map to the same intersection")
		return
	}
	// Alternative-route computation (query processor step 2): all four
	// approaches fan out concurrently over the city's engine.
	rs, err := c.RunPlanners(eval.Query{S: sv, T: tv})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "route computation failed")
		log.Printf("server: planners on %s %d->%d: %v", q.Get("city"), sv, tv, err)
		return
	}
	// Live-swap observability: which snapshot each approach answered
	// under and which hierarchy flavor served it (and how long its last
	// customization took). Result-cache hits are per city on GET /metrics;
	// the engine's own totals span every city sharing it. Verbose-only: this Printf (and the status formatting feeding it)
	// once ran per query, pushing every concurrent request through the
	// logger's mutex — under load the serving path serialized on it. The
	// same numbers are on GET /metrics without touching the hot path.
	if s.verbose {
		log.Printf("server: %s %d->%d answered at weight versions A=%d B=%d C=%d D=%d%s",
			q.Get("city"), sv, tv, rs.Versions[0], rs.Versions[1], rs.Versions[2], rs.Versions[3],
			formatHierarchies(c.Router.HierarchyStatuses()))
	}
	body, err := routesBody(c, &rs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding routes failed")
		log.Printf("server: encoding routes on %s %d->%d: %v", q.Get("city"), sv, tv, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		log.Printf("server: writing routes: %v", err)
	}
}

// routesBody assembles the /api/routes response:
//
//	{"sNode":[lat,lon],"tNode":[lat,lon],"approaches":[{"label":"A","weightVersion":N,"routes":[…]},…]}
//
// plus a trailing newline, byte for byte what json.Encoder writes for
// that shape. Each approach's "routes" value depends only on its route
// set, which a result-cache entry fixes, so it is encoded once per entry
// and kept on it (rs.Encoded): a hit's body is then a concatenation. It
// is stored on the first hit rather than on the miss, so a pair that is
// never asked again keeps no encoded bytes.
func routesBody(c *eval.City, rs *eval.RouteSets) ([]byte, error) {
	var routes [eval.NumApproaches][]byte
	n := 192 // sNode, tNode and the punctuation around the approaches
	for i := range routes {
		routes[i] = rs.Encoded[i].Load()
		if routes[i] == nil {
			var err error
			if routes[i], err = encodeRoutes(c, rs.Sets[i]); err != nil {
				return nil, err
			}
			if rs.Encoded[i] != nil {
				rs.Encoded[i].Store(routes[i])
			}
		}
		n += len(routes[i]) + 64 // label, weightVersion and keys
	}
	sp, tp := c.Graph.Point(rs.S), c.Graph.Point(rs.T)
	b := make([]byte, 0, n)
	b = append(b, `{"sNode":[`...)
	b = appendFloat(b, sp.Lat)
	b = append(b, ',')
	b = appendFloat(b, sp.Lon)
	b = append(b, `],"tNode":[`...)
	b = appendFloat(b, tp.Lat)
	b = append(b, ',')
	b = appendFloat(b, tp.Lon)
	b = append(b, `],"approaches":[`...)
	for i, r := range routes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"label":"`...)
		b = append(b, displayLabels[i]...)
		// weightVersion is the weight snapshot this approach's answer was
		// computed under — the observable half of a live swap.
		b = append(b, `","weightVersion":`...)
		b = strconv.AppendUint(b, uint64(rs.Versions[i]), 10)
		b = append(b, `,"routes":`...)
		b = append(b, r...)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// encodeRoutes encodes one approach's routes as the JSON array the UI
// draws ("null" for an empty set).
func encodeRoutes(c *eval.City, routes []path.Path) ([]byte, error) {
	var out []routeJSON
	for _, rt := range routes {
		out = append(out, toRouteJSON(c, rt))
	}
	return json.Marshal(out)
}

// appendFloat appends f formatted as encoding/json formats a float64:
// the shortest representation, in exponent form only below 1e-6 or from
// 1e21 on, with a two-digit negative exponent cut to one digit.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// matrixLimit caps the endpoint set sizes of one /api/matrix request: a
// 128×128 table is ~2800 restricted sweeps' worth of work on the largest
// city, about the most a synchronous HTTP response should carry.
const matrixLimit = 128

// maxBodyBytes caps every JSON request body. It sits well above the
// largest legitimate body, a full-Melbourne observation batch of about
// 24k edges; a 128×128 matrix body is about 7 KB.
const maxBodyBytes = 4 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers 413 for an oversized body and 400 otherwise, and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body over 4 MiB")
	} else {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

// handleMatrix is the many-to-many endpoint: it snaps every source and
// target coordinate to the nearest vertex and computes the full
// travel-time table through the city's matrix engine — one shared RPHAST
// selection over the target set, one restricted sweep per source —
// under a single weight snapshot (the reported weightVersion).
// Unreachable cells are null (JSON has no +Inf).
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req struct {
		City    string       `json:"city"`
		Sources [][2]float64 `json:"sources"` // [lat,lon] each
		Targets [][2]float64 `json:"targets"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	c, ok := s.cities[req.City]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.Matrix == nil {
		httpError(w, http.StatusConflict, "city has no matrix engine")
		return
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		httpError(w, http.StatusBadRequest, "need at least one source and one target")
		return
	}
	if len(req.Sources) > matrixLimit || len(req.Targets) > matrixLimit {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("at most %d sources and %d targets per request", matrixLimit, matrixLimit))
		return
	}
	snap := func(pts [][2]float64, what string) ([]graph.NodeID, [][2]float64, bool) {
		ids := make([]graph.NodeID, len(pts))
		snapped := make([][2]float64, len(pts))
		for i, pt := range pts {
			p := geo.Point{Lat: pt[0], Lon: pt[1]}
			if !p.Valid() {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("%s %d out of range", what, i))
				return nil, nil, false
			}
			v, _ := c.Index.Nearest(p)
			ids[i] = v
			snapped[i] = [2]float64{c.Graph.Point(v).Lat, c.Graph.Point(v).Lon}
		}
		return ids, snapped, true
	}
	sources, sNodes, ok := snap(req.Sources, "source")
	if !ok {
		return
	}
	targets, tNodes, ok := snap(req.Targets, "target")
	if !ok {
		return
	}
	start := time.Now()
	tab, err := c.Matrix.Matrix(sources, targets)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "matrix computation failed")
		log.Printf("server: matrix on %s %dx%d: %v", req.City, len(sources), len(targets), err)
		return
	}
	// Seconds as pointers so unreachable cells serialize as null.
	seconds := make([][]*float64, len(sources))
	for i := range sources {
		row := make([]*float64, len(targets))
		for j := range targets {
			if v := tab.At(i, j); !math.IsInf(v, 1) {
				row[j] = &tab.Seconds[i*len(targets)+j]
			}
		}
		seconds[i] = row
	}
	if s.verbose { // per-table log line; the histograms cover the silent case
		sel := "full sweeps"
		if tab.Restricted {
			sel = fmt.Sprintf("sel %d (%s)", tab.SelectionTargets, hitMiss(tab.SelectionHit))
		}
		log.Printf("server: %s matrix %dx%d v%d %s in %s",
			req.City, len(sources), len(targets), tab.Version, sel, time.Since(start).Round(10*time.Microsecond))
	}
	writeJSON(w, struct {
		Sources       [][2]float64 `json:"sources"` // snapped coordinates
		Targets       [][2]float64 `json:"targets"`
		Seconds       [][]*float64 `json:"seconds"` // null = unreachable
		WeightVersion uint64       `json:"weightVersion"`
		Selection     int          `json:"selectionTargets,omitempty"`
		SelectionHit  bool         `json:"selectionHit"`
		Restricted    bool         `json:"restricted"`
	}{sNodes, tNodes, seconds, uint64(tab.Version), tab.SelectionTargets, tab.SelectionHit, tab.Restricted})
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handlePublish is the live-traffic maintenance endpoint: it advances the
// city's rush-hour sequence one step and/or bans edges (road closures) on
// both metrics, then reports the resulting store versions. Bans are
// applied before the traffic step so a single call closes a road and
// publishes the jam that follows.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	c, ok := s.cities[q.Get("city")]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.Seq == nil || c.TrafficStore == nil || c.PublicStore == nil {
		httpError(w, http.StatusConflict, "city has no live-traffic stores")
		return
	}
	if ban := q.Get("ban"); ban != "" {
		var edges []graph.EdgeID
		for _, f := range strings.Split(ban, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || id < 0 || id >= c.Graph.NumEdges() {
				httpError(w, http.StatusBadRequest, "bad ban edge id: "+f)
				return
			}
			edges = append(edges, graph.EdgeID(id))
		}
		// A closure affects both what the provider plans on and what the
		// public metric reports, so it is banned on both stores.
		c.PublicStore.Ban(edges...)
		c.TrafficStore.Ban(edges...)
		log.Printf("server: %s closed %d edges (public v%d, traffic v%d)",
			q.Get("city"), len(edges), c.PublicStore.Version(), c.TrafficStore.Version())
	}
	if q.Get("step") != "0" { // advancing is the default action
		snap := c.AdvanceTraffic()
		log.Printf("server: %s traffic advanced to step %d (weights v%d)",
			q.Get("city"), c.Seq.Step(), snap.Version())
	}
	s.writeTrafficStatus(w, q.Get("city"), c)
}

// handleTraffic reports the live-traffic state of one city: step, store
// versions, closures, and the version each planner currently serves —
// read passively, so a GET never triggers a rebuild.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("city")
	c, ok := s.cities[name]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.TrafficStore == nil {
		httpError(w, http.StatusConflict, "city has no live-traffic stores")
		return
	}
	s.writeTrafficStatus(w, name, c)
}

func (s *Server) writeTrafficStatus(w http.ResponseWriter, name string, c *eval.City) {
	out := struct {
		City           string   `json:"city"`
		Step           int      `json:"step"`
		PublicVersion  uint64   `json:"publicVersion"`
		TrafficVersion uint64   `json:"trafficVersion"`
		BannedEdges    []int    `json:"bannedEdges,omitempty"`
		Planners       []uint64 `json:"plannerVersions,omitempty"`
	}{
		City:           name,
		Step:           c.Seq.Step(),
		PublicVersion:  uint64(c.PublicStore.Version()),
		TrafficVersion: uint64(c.TrafficStore.Version()),
	}
	for _, e := range c.TrafficStore.Banned() {
		out.BannedEdges = append(out.BannedEdges, int(e))
	}
	sort.Ints(out.BannedEdges)
	for _, v := range c.Router.ServingVersions() {
		out.Planners = append(out.Planners, uint64(v))
	}
	writeJSON(w, out)
}

// formatHierarchies renders the hierarchy observability suffix of the
// per-query log line: flavor and last customization latency per approach
// running on a hierarchy backend, e.g. " hier A=cch(2.1ms) B=cch(2.3ms)";
// empty when no approach runs a hierarchy.
func formatHierarchies(statuses []core.HierarchyStatus) string {
	var sb strings.Builder
	for i, st := range statuses {
		if st.Kind == "" || i >= len(displayLabels) {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString(" hier")
		}
		fmt.Fprintf(&sb, " %s=%s(%s)", displayLabels[i], st.Kind, st.LastCustomize.Round(100*time.Microsecond))
	}
	return sb.String()
}

func toRouteJSON(c *eval.City, p path.Path) routeJSON {
	rj := routeJSON{
		// Travel time rounded to minutes for display, as in the paper.
		Minutes: float64(int(p.TimeS/60 + 0.5)),
		KM:      p.LengthM / 1000,
	}
	for _, pt := range p.Points(c.Graph) {
		rj.Points = append(rj.Points, [2]float64{pt.Lat, pt.Lon})
	}
	return rj
}

// handleRating accepts the feedback form (Fig. 3).
func (s *Server) handleRating(w http.ResponseWriter, r *http.Request) {
	var sub RatingSubmission
	if !decodeBody(w, r, &sub) {
		return
	}
	if _, ok := s.cities[sub.City]; !ok {
		httpError(w, http.StatusBadRequest, "unknown city")
		return
	}
	for _, v := range sub.Ratings {
		if v < 1 || v > 5 {
			httpError(w, http.StatusBadRequest, "ratings must be 1-5")
			return
		}
	}
	if len(sub.Comment) > 4096 {
		httpError(w, http.StatusBadRequest, "comment too long")
		return
	}
	sub.Time = time.Now().UTC()
	// The lock covers the file write too: concurrent submissions share
	// one temporary file, so each write-and-rename must finish before the
	// next begins.
	s.mu.Lock()
	s.ratings = append(s.ratings, sub)
	if s.storePath != "" {
		if err := persistRatings(s.storePath, s.ratings); err != nil {
			log.Printf("server: persisting ratings: %v", err)
		}
	}
	s.mu.Unlock()
	writeJSON(w, map[string]string{"status": "ok"})
}

func persistRatings(storePath string, all []RatingSubmission) error {
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	tmp := storePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, storePath)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("server: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
