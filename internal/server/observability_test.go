package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cch"
	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/eval"
)

func newObservableServer(t testing.TB) (*httptest.Server, map[string]*eval.City) {
	t.Helper()
	cities := testCities(t)
	ts := httptest.NewServer(New(cities, "", WithMetrics(), WithIngest()))
	t.Cleanup(ts.Close)
	return ts, cities
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func postObservations(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	res, err := http.Post(ts.URL+"/api/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out map[string]any
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return res, out
}

// TestMetricsEndpoint exercises the full scrape surface: it drives
// queries, a publish, a matrix table and an ingest batch, then checks
// the exposition carries every family the stack records, in valid
// Prometheus text shape (help/type headers, cumulative buckets).
func TestMetricsEndpoint(t *testing.T) {
	ts, cities := newObservableServer(t)
	c := cities["Copenhagen"]
	bb := c.Graph.BBox()

	routesURL := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)
	for i := 0; i < 2; i++ {
		res := getJSON(t, routesURL, nil)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("routes status = %d", res.StatusCode)
		}
	}
	postJSON(t, ts.URL+"/api/publish?city=Copenhagen", nil)
	matrixBody := fmt.Sprintf(`{"city":"Copenhagen","sources":[[%f,%f],[%f,%f]],"targets":[[%f,%f],[%f,%f]]}`,
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon, bb.MinLat, bb.MaxLon, bb.MaxLat, bb.MinLon)
	res, err := http.Post(ts.URL+"/api/matrix", "application/json", strings.NewReader(matrixBody))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("matrix status = %d", res.StatusCode)
	}
	if res, _ := postObservations(t, ts,
		`{"city":"Copenhagen","observations":[{"edge":3,"speed":0.5},{"edge":9,"closed":true}]}`); res.StatusCode != http.StatusOK {
		t.Fatalf("observations status = %d", res.StatusCode)
	}

	text := scrape(t, ts)
	for _, want := range []string{
		`routing_query_seconds_count{city="Copenhagen",planner="Plateaus"}`,
		`routing_query_seconds_bucket{city="Copenhagen",planner="GMaps",le="+Inf"}`,
		`routing_result_cache_hits_total{city="Copenhagen"}`,
		`routing_result_cache_misses_total{city="Copenhagen"}`,
		`routing_customize_seconds_count{city="Copenhagen",planner="GMaps"}`,
		`routing_matrix_cells_sum{city="Copenhagen"} 4`,
		`routing_store_version{city="Copenhagen",store="public"}`,
		`routing_store_publishes_total{city="Copenhagen",store="traffic"}`,
		`routing_serving_version{city="Copenhagen",planner="Plateaus"}`,
		`routing_traffic_step{city="Copenhagen"} 1`,
		`routing_ingest_observations_total{city="Copenhagen"} 2`,
		`routing_ingest_closures_total{city="Copenhagen"} 1`,
		`routing_ingest_publishes_total{city="Copenhagen"} 1`,
		`routing_ingest_closed_edges{city="Copenhagen"} 1`,
		"# TYPE routing_query_seconds histogram",
		"# TYPE routing_store_version gauge",
		"# TYPE routing_ingest_observations_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// TestCustomizeFailuresExported pins the customization-failure counter
// on a ch-auto city: one series per planner reporting a hierarchy
// (Commercial on the traffic store, Plateaus on the public one), and
// none for the planners that share Plateaus' hierarchy.
func TestCustomizeFailuresExported(t *testing.T) {
	ts := httptest.NewServer(New(restrictedTestCities(t), "", WithMetrics()))
	t.Cleanup(ts.Close)
	text := scrape(t, ts)
	for _, want := range []string{
		`routing_customize_failures_total{city="Copenhagen",planner="GMaps"} 0`,
		`routing_customize_failures_total{city="Copenhagen",planner="Plateaus"} 0`,
		"# TYPE routing_customize_failures_total counter",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(text, `routing_customize_failures_total{city="Copenhagen",planner="Dissimilarity"}`) {
		t.Error("planner without a hierarchy of its own reports customization failures")
	}
}

// TestCacheCountersPerCityOnSharedEngine pins that result-cache counters
// stay per city when every city serves through one engine, as the
// demoserver wires them: a city nobody queried reads 0, and no series
// reports the engine-wide total under a city label.
func TestCacheCountersPerCityOnSharedEngine(t *testing.T) {
	cities := map[string]*eval.City{}
	for name, p := range map[string]citygen.Profile{"Copenhagen": citygen.Copenhagen(), "Dhaka": citygen.Dhaka()} {
		p.Rows, p.Cols = 12, 12
		p.Motorway.Present = false
		c, err := eval.NewCity(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		cities[name] = c
	}
	engine := core.NewEngine(2)
	engine.SetCache(64)
	for _, c := range cities {
		c.SetEngine(engine)
	}
	ts := httptest.NewServer(New(cities, "", WithMetrics()))
	t.Cleanup(ts.Close)

	bb := cities["Copenhagen"].Graph.BBox()
	routesURL := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)
	for i := 0; i < 2; i++ {
		if res := getJSON(t, routesURL, nil); res.StatusCode != http.StatusOK {
			t.Fatalf("routes status = %d", res.StatusCode)
		}
	}
	if hits, _ := engine.CacheStats(); hits == 0 {
		t.Fatal("the repeated Copenhagen query did not hit the shared cache")
	}

	text := scrape(t, ts)
	for _, want := range []string{
		`routing_result_cache_hits_total{city="Dhaka"} 0`,
		`routing_result_cache_misses_total{city="Dhaka"} 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(text, `routing_result_cache_hits_total{city="Copenhagen"} 0`+"\n") {
		t.Error("Copenhagen's cache hit is not attributed to Copenhagen")
	}
	if strings.Contains(text, "routing_result_cache_entries_") {
		t.Error("scrape still exports the engine-wide routing_result_cache_entries_* family under city labels")
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// TestMetricsBeforeSetEngineAttributesPerCity is the other wiring order
// of TestCacheCountersPerCityOnSharedEngine: the server installs every
// city's bundle first, and the cities join one shared engine afterwards,
// which also replaces each city's matrix engine. Queries, cache traffic
// and matrix tables still land under their own city.
func TestMetricsBeforeSetEngineAttributesPerCity(t *testing.T) {
	cities := map[string]*eval.City{}
	for name, p := range map[string]citygen.Profile{"Copenhagen": citygen.Copenhagen(), "Dhaka": citygen.Dhaka()} {
		p.Rows, p.Cols = 12, 12
		p.Motorway.Present = false
		c, err := eval.NewCityOpts(p, 7, core.Options{TreeBackend: core.TreeCHAuto})
		if err != nil {
			t.Fatal(err)
		}
		cities[name] = c
	}
	srv := New(cities, "", WithMetrics())
	engine := core.NewEngine(2)
	for _, c := range cities {
		c.SetEngine(engine)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	bb := cities["Copenhagen"].Graph.BBox()
	routesURL := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)
	for i := 0; i < 2; i++ {
		if res := getJSON(t, routesURL, nil); res.StatusCode != http.StatusOK {
			t.Fatalf("routes status = %d", res.StatusCode)
		}
	}
	req := matrixRequest{
		City:    "Copenhagen",
		Sources: [][2]float64{{bb.MinLat, bb.MinLon}},
		Targets: [][2]float64{{bb.MaxLat, bb.MaxLon}, {bb.MinLat, bb.MaxLon}},
	}
	if res := postBodyJSON(t, ts.URL+"/api/matrix", req, nil); res.StatusCode != http.StatusOK {
		t.Fatalf("matrix status = %d", res.StatusCode)
	}

	text := scrape(t, ts)
	for _, want := range []string{
		`routing_query_seconds_count{city="Copenhagen",planner="Plateaus"} 2`,
		`routing_query_seconds_count{city="Copenhagen",planner="GMaps"} 2`,
		`routing_result_cache_misses_total{city="Copenhagen"} 4`,
		`routing_result_cache_hits_total{city="Copenhagen"} 4`,
		`routing_result_cache_misses_total{city="Dhaka"} 0`,
		`routing_matrix_cells_count{city="Copenhagen"} 1`,
		`routing_matrix_cells_count{city="Dhaka"} 0`,
		`routing_selection_nodes_count{city="Copenhagen"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}
}

// TestMetricsScrapeRacesPublishesAndQueries is the tentpole's -race
// test: scrapes, publish swaps, ingest batches and batch queries all
// run concurrently against one server. Nothing may race, and the
// monotone counters on consecutive scrapes may never step backwards.
func TestMetricsScrapeRacesPublishesAndQueries(t *testing.T) {
	ts, cities := newObservableServer(t)
	c := cities["Copenhagen"]
	bb := c.Graph.BBox()
	routesURL := ts.URL + fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon)

	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // query stream
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := http.Get(routesURL)
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}
	}()
	go func() { // publish swaps
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := http.Post(ts.URL+"/api/publish?city=Copenhagen", "application/json", nil)
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}
	}()
	go func() { // ingest stream
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			body := fmt.Sprintf(`{"city":"Copenhagen","scenario":"sensor-noise","seed":5,"step":%d,"decaySteps":1}`, i+1)
			res, err := http.Post(ts.URL+"/api/observations", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}
	}()

	counter := func(text, name string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name) {
				var v float64
				fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%f", &v)
				return v
			}
		}
		return -1
	}
	var lastObs float64
	for i := 0; i < 2*rounds; i++ {
		text := scrape(t, ts)
		if v := counter(text, `routing_ingest_observations_total{city="Copenhagen"}`); v < lastObs {
			t.Fatalf("scrape %d: ingest observations went backwards: %f -> %f", i, lastObs, v)
		} else {
			lastObs = v
		}
	}
	wg.Wait()

	// Producer serialization (store.Update) must have kept the traffic
	// store's versions gapless across the two racing producers.
	var st trafficStatus
	getJSON(t, ts.URL+"/api/traffic?city=Copenhagen", &st)
	if want := uint64(1 + 2*rounds); st.TrafficVersion != want {
		t.Fatalf("traffic version = %d, want %d (publish or ingest dropped)", st.TrafficVersion, want)
	}
}

// TestOversizedBodiesRejected pins the request-body cap on every JSON
// POST handler: a body just over maxBodyBytes is answered 413 before any
// handler-level validation runs.
func TestOversizedBodiesRejected(t *testing.T) {
	ts, _ := newObservableServer(t)
	body := `{"city":"Copenhagen","comment":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/api/matrix", "/api/rating", "/api/observations"} {
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, res.StatusCode)
		}
	}
}

// TestObservationsEndpoint covers the ingest handler's request surface:
// direct observations, scenario generation, decay, and every error arm.
func TestObservationsEndpoint(t *testing.T) {
	ts, cities := newObservableServer(t)
	c := cities["Copenhagen"]

	res, out := postObservations(t, ts,
		`{"city":"Copenhagen","observations":[{"edge":7,"speed":0.25}]}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if out["applied"].(float64) != 1 || out["weightVersion"].(float64) != 2 || out["perturbedEdges"].(float64) != 1 {
		t.Fatalf("response = %v", out)
	}
	// The published snapshot is live: edge 7 now costs 4x its baseline.
	wantW := c.Ingest.Baseline()[7] / 0.25
	if got := c.TrafficStore.Latest().Weights()[7]; got != wantW {
		t.Fatalf("edge 7 weight = %f, want %f", got, wantW)
	}

	// Scenario generation on top of direct observations, one publish.
	res, out = postObservations(t, ts,
		`{"city":"Copenhagen","scenario":"rush-hour","seed":9,"step":3,"edges":4,"decaySteps":1}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("scenario status = %d", res.StatusCode)
	}
	if out["applied"].(float64) != 4 {
		t.Fatalf("scenario applied = %v, want 4", out["applied"])
	}
	if out["weightVersion"].(float64) != 3 {
		t.Fatalf("weightVersion = %v, want 3 (single publish per request)", out["weightVersion"])
	}

	// Closures round-trip through closedEdges and reopen.
	res, out = postObservations(t, ts,
		`{"city":"Copenhagen","observations":[{"edge":11,"closed":true}]}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("closure status = %d", res.StatusCode)
	}
	if closed, ok := out["closedEdges"].([]any); !ok || len(closed) != 1 || closed[0].(float64) != 11 {
		t.Fatalf("closedEdges = %v, want [11]", out["closedEdges"])
	}
	res, out = postObservations(t, ts,
		`{"city":"Copenhagen","observations":[{"edge":11,"reopen":true}]}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("reopen status = %d", res.StatusCode)
	}
	if _, ok := out["closedEdges"]; ok {
		t.Fatalf("closedEdges should be omitted after reopen, got %v", out["closedEdges"])
	}

	for _, bad := range []struct {
		body string
		code int
	}{
		{`{"city":"Nowhere"}`, http.StatusNotFound},
		{`not json`, http.StatusBadRequest},
		{`{"city":"Copenhagen","observations":[{"edge":999999,"speed":1}]}`, http.StatusBadRequest},
		{`{"city":"Copenhagen","observations":[{"edge":1,"speed":-2}]}`, http.StatusBadRequest},
		{`{"city":"Copenhagen","scenario":"earthquake"}`, http.StatusBadRequest},
	} {
		res, _ := postObservations(t, ts, bad.body)
		if res.StatusCode != bad.code {
			t.Errorf("%s: status = %d, want %d", bad.body, res.StatusCode, bad.code)
		}
	}

	// A rejected batch must be atomic: nothing above may have bumped the
	// version past the three good publishes.
	if v := uint64(c.TrafficStore.Version()); v != 5 {
		t.Fatalf("traffic version = %d, want 5 (failed batches must not publish)", v)
	}
}

// TestIngestRouteDisabledByDefault: without WithIngest the route does
// not exist, and without WithMetrics /metrics does not exist.
func TestIngestRouteDisabledByDefault(t *testing.T) {
	ts := newTestServer(t, "")
	res, err := http.Post(ts.URL+"/api/observations", "application/json",
		strings.NewReader(`{"city":"Copenhagen"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Fatalf("observations should 404/405 without WithIngest, got %d", res.StatusCode)
	}
	res2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode == http.StatusOK {
		t.Fatalf("/metrics should 404 without WithMetrics, got %d", res2.StatusCode)
	}
}

// TestIngestNilOnHandAssembledCity: a City built by hand (no ingestor)
// answers 409, not a panic.
func TestIngestNilOnHandAssembledCity(t *testing.T) {
	cities := testCities(t)
	cities["Copenhagen"].Ingest = nil
	ts := httptest.NewServer(New(cities, "", WithIngest()))
	defer ts.Close()
	res, err := http.Post(ts.URL+"/api/observations", "application/json",
		strings.NewReader(`{"city":"Copenhagen","observations":[{"edge":1,"speed":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", res.StatusCode)
	}
}

// TestVerboseOption just pins that the option compiles and flips the
// flag; the gating itself is a plain branch around log.Printf.
func TestVerboseOption(t *testing.T) {
	s := New(testCities(t), "", WithVerbose(true))
	if !s.verbose {
		t.Fatal("WithVerbose(true) did not set verbose")
	}
	if New(testCities(t), "").verbose {
		t.Fatal("verbose must default to off")
	}
}

// TestOwnerGauges pins the memory-owner gauges on two ch-auto cities: a
// scrape reports routing_view_bytes for the public and the traffic store
// of every city and routing_preprocessed_bytes for every city. The two
// views of a city report equal bytes — their weight and arc-end columns
// over one shared sweep topology, 32 bytes per chordal arc pair, so the
// topology is not in the figure — and the preprocessing, which holds the
// topology once, is larger than a view, also after a publish.
func TestOwnerGauges(t *testing.T) {
	cities := map[string]*eval.City{}
	for _, p := range []citygen.Profile{citygen.Copenhagen(), citygen.Dhaka()} {
		p.Rows, p.Cols = 16, 16
		p.Motorway.Present = false
		c, err := eval.NewCityOpts(p, 7, core.Options{TreeBackend: core.TreeCHAuto})
		if err != nil {
			t.Fatal(err)
		}
		cities[p.Name] = c
	}
	ts := httptest.NewServer(New(cities, "", WithMetrics()))
	t.Cleanup(ts.Close)
	gauge := func(text, series string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s = %q", series, v)
				}
				return f
			}
		}
		t.Fatalf("scrape missing %s", series)
		return 0
	}
	for round := 0; round < 2; round++ {
		text := scrape(t, ts)
		for name, c := range cities {
			public := gauge(text, fmt.Sprintf(`routing_view_bytes{city=%q,store="public"}`, name))
			private := gauge(text, fmt.Sprintf(`routing_view_bytes{city=%q,store="traffic"}`, name))
			pre := gauge(text, fmt.Sprintf(`routing_preprocessed_bytes{city=%q}`, name))
			if public != private {
				t.Errorf("round %d, %s: public view %v bytes, traffic view %v", round, name, public, private)
			}
			if want := 32 * float64(cch.PreprocessSharedWith(c.Graph, cch.OrderConfig{}).NumPairs()); public != want {
				t.Errorf("round %d, %s: view bytes %v, want %v (columns only)", round, name, public, want)
			}
			if pre <= public {
				t.Errorf("round %d, %s: preprocessing %v bytes, not above a view's %v", round, name, pre, public)
			}
		}
		for _, c := range cities {
			c.AdvanceTraffic()
			c.PublicStore.Ban(3)
			c.Router.Sync()
		}
	}
}
