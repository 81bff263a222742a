package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// The response shapes the checks (and the traced run's encode replay)
// need, mirrored from the server's JSON rather than imported: the wire
// format is the contract under test.
type routeJSON struct {
	Points  [][2]float64 `json:"points"`
	Minutes float64      `json:"minutes"`
	KM      float64      `json:"km"`
}

type approachJSON struct {
	Label         string      `json:"label"`
	WeightVersion uint64      `json:"weightVersion"`
	Routes        []routeJSON `json:"routes"`
}

type routesResponse struct {
	SNode      [2]float64     `json:"sNode"`
	TNode      [2]float64     `json:"tNode"`
	Approaches []approachJSON `json:"approaches"`
}

type matrixResponse struct {
	Sources       [][2]float64 `json:"sources"`
	Targets       [][2]float64 `json:"targets"`
	Seconds       [][]*float64 `json:"seconds"`
	WeightVersion uint64       `json:"weightVersion"`
	Selection     int          `json:"selectionTargets,omitempty"`
	SelectionHit  bool         `json:"selectionHit"`
	Restricted    bool         `json:"restricted"`
}

// writeResponse covers /api/publish (both store versions) and
// /api/observations (the traffic store's version).
type writeResponse struct {
	PublicVersion  uint64 `json:"publicVersion"`
	TrafficVersion uint64 `json:"trafficVersion"`
	WeightVersion  uint64 `json:"weightVersion"`
}

// visibleAs returns what makes a write of the given kind visible in
// /api/routes answers: the approach that must move (A plans on the
// traffic store, B on the public one) and the version it must reach.
func (wr writeResponse) visibleAs(kind reqKind) (approach int, version uint64) {
	switch kind {
	case kindBan:
		return 1, wr.PublicVersion
	case kindObservations:
		return 0, wr.WeightVersion
	}
	return 0, wr.TrafficVersion
}

const numApproaches = 4

var approachLabels = [numApproaches]string{"A", "B", "C", "D"}

// checkRoutes validates a /api/routes body: approaches A–D in order,
// each with 1–3 routes that start at sNode and end at tNode. Under live
// closures an approach may legitimately find no route, so live callers
// pass allowEmpty.
func checkRoutes(body []byte, allowEmpty bool) (*routesResponse, error) {
	var r routesResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("routes: bad JSON: %w", err)
	}
	if len(r.Approaches) != numApproaches {
		return nil, fmt.Errorf("routes: %d approaches, want %d", len(r.Approaches), numApproaches)
	}
	for i, a := range r.Approaches {
		if a.Label != approachLabels[i] {
			return nil, fmt.Errorf("routes: approach %d labelled %q, want %q", i, a.Label, approachLabels[i])
		}
		if len(a.Routes) > 3 || (len(a.Routes) == 0 && !allowEmpty) {
			return nil, fmt.Errorf("routes: approach %s has %d routes, want 1-3", a.Label, len(a.Routes))
		}
		if a.WeightVersion == 0 {
			return nil, fmt.Errorf("routes: approach %s reports no weight version", a.Label)
		}
		for j, rt := range a.Routes {
			if len(rt.Points) < 2 {
				return nil, fmt.Errorf("routes: approach %s route %d has %d points", a.Label, j, len(rt.Points))
			}
			if rt.Points[0] != r.SNode || rt.Points[len(rt.Points)-1] != r.TNode {
				return nil, fmt.Errorf("routes: approach %s route %d does not run from sNode to tNode", a.Label, j)
			}
		}
	}
	return &r, nil
}

// checkMatrix validates a /api/matrix body against the requested side.
func checkMatrix(body []byte, k int) (*matrixResponse, error) {
	var m matrixResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("matrix: bad JSON: %w", err)
	}
	if len(m.Sources) != k || len(m.Targets) != k || len(m.Seconds) != k {
		return nil, fmt.Errorf("matrix: %dx%d table with %d rows, want %dx%d", len(m.Sources), len(m.Targets), len(m.Seconds), k, k)
	}
	for i, row := range m.Seconds {
		if len(row) != k {
			return nil, fmt.Errorf("matrix: row %d has %d cells, want %d", i, len(row), k)
		}
	}
	if m.WeightVersion == 0 {
		return nil, errors.New("matrix: no weight version")
	}
	return &m, nil
}

// checkMatrixRepeat validates the answer to a repeated matrix body: the
// selection must now come out of the cache and the table must not move.
func checkMatrixRepeat(first, second *matrixResponse) error {
	if !second.SelectionHit {
		return errors.New("matrix: repeated body did not hit the selection cache")
	}
	for i := range first.Seconds {
		for j := range first.Seconds[i] {
			a, b := first.Seconds[i][j], second.Seconds[i][j]
			if (a == nil) != (b == nil) || (a != nil && *a != *b) {
				return fmt.Errorf("matrix: cell %d,%d changed on repeat", i, j)
			}
		}
	}
	return nil
}

var versionKey = []byte(`"weightVersion":`)

// scanVersions pulls the four approaches' weight versions out of a
// /api/routes body without decoding its ~25 KB of coordinates — cheap
// enough for the live_traffic reader to run on every response.
func scanVersions(body []byte) (v [numApproaches]uint64, ok bool) {
	for i := range v {
		at := bytes.Index(body, versionKey)
		if at < 0 {
			return v, false
		}
		body = body[at+len(versionKey):]
		n := 0
		for n < len(body) && body[n] >= '0' && body[n] <= '9' {
			v[i] = v[i]*10 + uint64(body[n]-'0')
			n++
		}
		if n == 0 {
			return v, false
		}
	}
	return v, true
}

// versionTracker checks that the versions one client observes per city
// never go backwards, and counts responses whose public-metric
// approaches (B, C, D) disagree.
type versionTracker struct {
	last  [][numApproaches]uint64 // per city
	mixed int
}

func newVersionTracker(cities int) *versionTracker {
	return &versionTracker{last: make([][numApproaches]uint64, cities)}
}

func (t *versionTracker) observe(ci int, v [numApproaches]uint64) error {
	if v[1] != v[2] || v[2] != v[3] {
		t.mixed++
	}
	for i := range v {
		if v[i] < t.last[ci][i] {
			return fmt.Errorf("approach %s went back from weight version %d to %d", approachLabels[i], t.last[ci][i], v[i])
		}
		t.last[ci][i] = v[i]
	}
	return nil
}
