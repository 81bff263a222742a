package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/graph"
)

// routesBodyReference is the /api/routes body as the handler encoded it
// before bodies were assembled from per-approach fragments: the response
// structs through json.Encoder. routesBody must reproduce it byte for
// byte, on a miss, on a hit and after a publish.
func routesBodyReference(t *testing.T, c *eval.City, rs eval.RouteSets) []byte {
	t.Helper()
	type approachJSON struct {
		Label         string      `json:"label"`
		WeightVersion uint64      `json:"weightVersion"`
		Routes        []routeJSON `json:"routes"`
	}
	out := struct {
		SNode      [2]float64     `json:"sNode"`
		TNode      [2]float64     `json:"tNode"`
		Approaches []approachJSON `json:"approaches"`
	}{
		SNode: [2]float64{c.Graph.Point(rs.S).Lat, c.Graph.Point(rs.S).Lon},
		TNode: [2]float64{c.Graph.Point(rs.T).Lat, c.Graph.Point(rs.T).Lon},
	}
	for i := range c.Planners {
		aj := approachJSON{Label: displayLabels[i], WeightVersion: uint64(rs.Versions[i])}
		for _, rt := range rs.Sets[i] {
			aj.Routes = append(aj.Routes, toRouteJSON(c, rt))
		}
		out.Approaches = append(out.Approaches, aj)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cornerQuery returns the query between the nodes nearest two opposite
// corners of the city and the /api/routes URL that snaps to exactly them.
func cornerQuery(c *eval.City) (eval.Query, string) {
	bb := c.Graph.BBox()
	s, _ := c.Index.Nearest(geo.Point{Lat: bb.MinLat, Lon: bb.MinLon})
	t, _ := c.Index.Nearest(geo.Point{Lat: bb.MaxLat, Lon: bb.MaxLon})
	coord := func(v graph.NodeID) string {
		p := c.Graph.Point(v)
		return strconv.FormatFloat(p.Lat, 'g', -1, 64) + "," + strconv.FormatFloat(p.Lon, 'g', -1, 64)
	}
	return eval.Query{S: s, T: t}, fmt.Sprintf("/api/routes?city=%s&s=%s&t=%s", c.Profile.Name, coord(s), coord(t))
}

// serveBody answers one request in-process and returns its body.
func serveBody(t testing.TB, s *Server, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestRoutesBodyMatchesReference pins the assembled body to the
// reference encoding on a miss, on the first hit (which stores each
// approach's encoded routes on its cache entry), on a hit that reads
// them, and after a closure on the public store moves Plateaus,
// Dissimilarity and Penalty to a new version: the stored routes of the
// old version must not be served, and weightVersion must move. Both tree
// backends run it; ch-auto swaps its view in the background.
func TestRoutesBodyMatchesReference(t *testing.T) {
	t.Run("dijkstra", func(t *testing.T) { testRoutesBodyMatchesReference(t, testCities(t)) })
	t.Run("ch-auto", func(t *testing.T) { testRoutesBodyMatchesReference(t, restrictedTestCities(t)) })
}

func testRoutesBodyMatchesReference(t *testing.T, cities map[string]*eval.City) {
	c := cities["Copenhagen"]
	s := New(cities, "")
	q, url := cornerQuery(c)

	// stored says, per approach, whether its encoded routes must already
	// be on its cache entry once the body is served.
	check := func(step string, stored [eval.NumApproaches]bool) (eval.RouteSets, []byte) {
		t.Helper()
		body := serveBody(t, s, url)
		rs, err := c.RunPlanners(q) // a cache hit: the routes the body came from
		if err != nil {
			t.Fatal(err)
		}
		if want := routesBodyReference(t, c, rs); !bytes.Equal(body, want) {
			t.Fatalf("%s: body differs from the reference encoding\n got %.300s\nwant %.300s", step, body, want)
		}
		for i, enc := range rs.Encoded {
			if enc == nil {
				t.Fatalf("%s: approach %s answered from outside the cache", step, displayLabels[i])
			}
			if got := enc.Load() != nil; got != stored[i] {
				t.Fatalf("%s: approach %s has encoded routes stored = %v, want %v", step, displayLabels[i], got, stored[i])
			}
		}
		return rs, body
	}
	none, all := [eval.NumApproaches]bool{}, [eval.NumApproaches]bool{true, true, true, true}
	check("miss", none) // a miss stores nothing
	check("first hit", all)
	before, old := check("second hit", all)

	// Close a middle edge of the fastest route Plateaus (B) returned.
	// Commercial (A) plans on the traffic store, so it keeps hitting its
	// old entry.
	fastest := before.Sets[1][0].Edges
	c.PublicStore.Ban(fastest[len(fastest)/2])
	c.Router.Sync()
	after, body := check("miss after publish", [eval.NumApproaches]bool{true, false, false, false})
	check("first hit after publish", all)
	check("second hit after publish", all)

	if after.Versions[1] <= before.Versions[1] {
		t.Fatalf("approach B weightVersion %d after the closure, was %d", after.Versions[1], before.Versions[1])
	}
	if bytes.Equal(body, old) {
		t.Fatal("body unchanged after closing B's fastest route")
	}
}

// TestRoutesHitConcurrentFill races the first hits of one pair: every
// goroutine may find the slots empty and store its own encoding, and
// every body must still be the same bytes.
func TestRoutesHitConcurrentFill(t *testing.T) {
	cities := testCities(t)
	c := cities["Copenhagen"]
	s := New(cities, "")
	_, url := cornerQuery(c)
	want := serveBody(t, s, url) // the miss

	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d", i, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Errorf("goroutine %d: body differs from the miss's", i)
		}
	}
	if b := serveBody(t, s, url); !bytes.Equal(b, want) {
		t.Error("body after the concurrent fill differs from the miss's")
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so an
// allocation count sees the handler alone.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// TestRoutesHitAllocs bounds the allocations of an in-process cache hit
// through Server.ServeHTTP: the body is copied from the cache entries,
// with no per-route work.
func TestRoutesHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cities := testCities(t)
	s := New(cities, "")
	_, url := cornerQuery(cities["Copenhagen"])
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := &discardResponse{h: http.Header{}}
	s.ServeHTTP(w, req) // the miss
	s.ServeHTTP(w, req) // the first hit stores the encoded routes
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	allocs := testing.AllocsPerRun(100, func() { s.ServeHTTP(w, req) })
	if allocs > 48 {
		t.Errorf("%v allocs per cache hit, want ≤ 48", allocs)
	}
	t.Logf("%v allocs per cache hit", allocs)
}

// TestAppendFloatMatchesJSON pins appendFloat to encoding/json's float64
// format, including the exponent forms no city coordinate reaches.
func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 55.676098, 12.568337, -37.8136, 144.9631, 0.1, 1e-6, 9.99e-7,
		-1.5e-7, 1e-10, 1e-100, 1e20, 1e21, -1.234e22, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}
