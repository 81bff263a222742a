package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

type trafficStatus struct {
	City           string   `json:"city"`
	Step           int      `json:"step"`
	PublicVersion  uint64   `json:"publicVersion"`
	TrafficVersion uint64   `json:"trafficVersion"`
	BannedEdges    []int    `json:"bannedEdges"`
	Planners       []uint64 `json:"plannerVersions"`
}

func postJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	res, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

func TestTrafficStatusEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	var st trafficStatus
	res := getJSON(t, ts.URL+"/api/traffic?city=Copenhagen", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if st.Step != 0 || st.PublicVersion != 1 || st.TrafficVersion != 1 {
		t.Fatalf("initial state = %+v, want step 0, versions 1/1", st)
	}
	if len(st.Planners) != 4 {
		t.Fatalf("planner versions = %v, want 4 entries", st.Planners)
	}
}

func TestPublishAdvancesTrafficAndBans(t *testing.T) {
	cities := testCities(t)
	ts := httptest.NewServer(New(cities, ""))
	t.Cleanup(ts.Close)

	var st trafficStatus
	res := postJSON(t, ts.URL+"/api/publish?city=Copenhagen", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("publish status = %d", res.StatusCode)
	}
	if st.Step != 1 || st.TrafficVersion != 2 {
		t.Fatalf("after publish: %+v, want step 1, traffic v2", st)
	}
	if st.PublicVersion != 1 {
		t.Fatalf("publish moved the public metric to v%d", st.PublicVersion)
	}

	// A closure bans on both stores and then steps traffic again.
	res = postJSON(t, ts.URL+"/api/publish?city=Copenhagen&ban=0,1", &st)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ban status = %d", res.StatusCode)
	}
	if len(st.BannedEdges) != 2 || st.BannedEdges[0] != 0 || st.BannedEdges[1] != 1 {
		t.Fatalf("banned edges = %v, want [0 1]", st.BannedEdges)
	}
	if st.PublicVersion != 2 || st.TrafficVersion != 4 {
		// public: v1 + ban republish = 2; traffic: v2 + ban + step = 4.
		t.Fatalf("after ban+step: %+v, want public v2, traffic v4", st)
	}

	// /api/traffic reads serving versions passively; once the swaps have
	// landed, every planner serves its store's latest snapshot.
	cities["Copenhagen"].Router.Sync()
	if res := getJSON(t, ts.URL+"/api/traffic?city=Copenhagen", &st); res.StatusCode != http.StatusOK {
		t.Fatalf("traffic status = %d", res.StatusCode)
	}
	want := []uint64{st.TrafficVersion, st.PublicVersion, st.PublicVersion, st.PublicVersion}
	if !slices.Equal(st.Planners, want) {
		t.Fatalf("planner versions after Sync = %v, want %v (GMaps on traffic, B-D on public)", st.Planners, want)
	}

	// Routes still answer after the swaps, and report their versions.
	var rr struct {
		Approaches []struct {
			Label         string `json:"label"`
			WeightVersion uint64 `json:"weightVersion"`
		} `json:"approaches"`
	}
	bb := cities["Copenhagen"].Graph.BBox()
	res = getJSON(t, ts.URL+fmt.Sprintf("/api/routes?city=Copenhagen&s=%f,%f&t=%f,%f",
		bb.MinLat, bb.MinLon, bb.MaxLat, bb.MaxLon), &rr)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("routes after publish: status %d", res.StatusCode)
	}
	if len(rr.Approaches) != 4 {
		t.Fatalf("approaches = %d, want 4", len(rr.Approaches))
	}
	for _, a := range rr.Approaches {
		if a.WeightVersion == 0 {
			t.Errorf("approach %s reports no weight version", a.Label)
		}
	}

	res = postJSON(t, ts.URL+"/api/publish?city=Nowhere", nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown city publish: status %d", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/publish?city=Copenhagen&ban=notanedge", nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ban id: status %d", res.StatusCode)
	}
}
