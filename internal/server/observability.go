package server

import (
	"log"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/weights"
)

// Option configures a Server at construction (server.New is variadic, so
// existing two-argument callers are untouched).
type Option func(*Server)

// WithVerbose controls the per-query log lines of the hot handlers
// (/api/routes, /api/matrix). They are off by default: a log.Printf per
// query funnels every worker through the logger's mutex and the write(2)
// behind it, which serializes an otherwise concurrent serving path under
// load. Error logs stay unconditional either way. Interactive runs want
// them on — the demo server's -verbose flag decides.
func WithVerbose(v bool) Option {
	return func(s *Server) { s.verbose = v }
}

// WithMetrics equips the server with a metrics registry: GET /metrics
// serves the Prometheus text exposition, and scrape-time collectors
// export the serving counters that already live in the stack's atomics
// (store versions and publish counts, versions served per planner,
// selection-cache hit rates, ingest state). Each city gets one bundle
// through Router.SetMetrics; it lives on the city's weight providers,
// where the engine records query latency and cache traffic, the
// providers their customizations and the matrix engine its tables,
// whichever engine the city is given before or after.
func WithMetrics() Option {
	return func(s *Server) {
		s.registry = metrics.NewRegistry()
		for name, c := range s.cities {
			c.Router.SetMetrics(core.NewMetrics(s.registry, name))
		}
		s.registry.Collect(s.collectServing)
	}
}

// WithIngest enables POST /api/observations, the telemetry ingest
// endpoint feeding each city's Ingest path. Without it the route is not
// registered (the demo server's -ingest flag).
func WithIngest() Option {
	return func(s *Server) { s.ingest = true }
}

// Registry returns the metrics registry (nil unless WithMetrics).
func (s *Server) Registry() *metrics.Registry { return s.registry }

// collectServing is the scrape-time collector: counters and gauges whose
// source of truth is the serving layer's own atomics. Everything read
// here is passive — ServingVersions and HierarchyStatus never nudge a
// rebuild, so scrapes cannot perturb what they measure.
func (s *Server) collectServing(e *metrics.Emit) {
	names := make([]string, 0, len(s.cities))
	for name := range s.cities {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := s.cities[name]
		if c.PublicStore != nil {
			emitStore(e, name, "public", c.PublicStore)
		}
		if c.TrafficStore != nil {
			emitStore(e, name, "traffic", c.TrafficStore)
		}
		if c.Seq != nil {
			e.Gauge("routing_traffic_step", "Current step of the rush-hour sequence.",
				float64(c.Seq.Step()), "city", name)
		}
		versions := c.Router.ServingVersions()
		statuses := c.Router.HierarchyStatuses()
		for i, p := range c.Router.Planners() {
			e.Gauge("routing_serving_version", "Weight snapshot version currently installed, per planner.",
				float64(versions[i]), "city", name, "planner", p.Name())
			if statuses[i].Kind == "" {
				continue
			}
			e.Counter("routing_customize_failures_total", "Background customizations that failed, leaving the previous version serving.",
				float64(statuses[i].CustomizeFailures), "city", name, "planner", p.Name())
			// Commercial plans on the traffic store, Plateaus (and the
			// planners sharing its provider) on the public one.
			store := "public"
			if _, ok := p.(*core.Commercial); ok {
				store = "traffic"
			} else {
				e.Gauge("routing_preprocessed_bytes", "Bytes retained by the city's CCH preprocessing, the sweep topology its weight versions share counted once.",
					float64(statuses[i].PreprocessedBytes), "city", name)
			}
			e.Gauge("routing_view_bytes", "Bytes the serving weight version of a store retains of its own: its sweep weight and arc-end columns and inert mask, or the columns and private sweep CSR of a cch-perfect version. The traffic series also counts, once per city, the joint sweep topology of the two serving versions that /api/routes misses build.",
				float64(statuses[i].ViewBytes), "city", name, "store", store)
		}
		if c.Matrix != nil {
			if st := c.Matrix.HierarchyStatus(); st.Kind != "" {
				e.Counter("routing_selection_cache_hits_total", "RPHAST selection-cache hits of /api/matrix tables.",
					float64(st.SelectionHits), "city", name)
				e.Counter("routing_selection_cache_misses_total", "RPHAST selection-cache misses of /api/matrix tables.",
					float64(st.SelectionMisses), "city", name)
				e.Gauge("routing_selection_cache_bytes", "Bytes retained by the serving version's cached RPHAST selections (the last 8 target sets).",
					float64(st.SelectionBytes), "city", name)
			}
		}
		if c.Ingest != nil {
			st := c.Ingest.Stats()
			e.Counter("routing_ingest_observations_total", "Telemetry observations applied.",
				float64(st.Observations), "city", name)
			e.Counter("routing_ingest_closures_total", "Closure observations among them.",
				float64(st.Closures), "city", name)
			e.Counter("routing_ingest_publishes_total", "Snapshots published by the ingest path.",
				float64(st.Publishes), "city", name)
			e.Gauge("routing_ingest_perturbed_edges", "Edges currently deviating from baseline.",
				float64(c.Ingest.Perturbed()), "city", name)
			e.Gauge("routing_ingest_closed_edges", "Edges currently closed by ingest.",
				float64(len(c.Ingest.ClosedEdges())), "city", name)
		}
	}
}

// emitStore exports one weight store's serving state. Versions start at
// 1 and producer serialization keeps them gapless, so version-1 doubles
// as the publish count.
func emitStore(e *metrics.Emit, city, store string, st *weights.Store) {
	v := uint64(st.Version())
	e.Gauge("routing_store_version", "Latest snapshot version in the weight store.",
		float64(v), "city", city, "store", store)
	e.Counter("routing_store_publishes_total", "Publishes into the weight store (version minus the seed snapshot).",
		float64(v-1), "city", city, "store", store)
}

// observationsRequest is the POST /api/observations body: direct
// observations, a scenario replay step, or both (scenario observations
// are applied after the direct ones, all in one publish).
type observationsRequest struct {
	City         string                  `json:"city"`
	Observations []telemetry.Observation `json:"observations,omitempty"`
	// DecaySteps ages the standing deviations before applying this
	// batch's observations (0: no decay).
	DecaySteps float64 `json:"decaySteps,omitempty"`
	// Scenario, when set, generates Step's observation batch of the named
	// deterministic workload (rush-hour, incident-storm, sensor-noise).
	Scenario string  `json:"scenario,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Step     int     `json:"step,omitempty"`
	Edges    int     `json:"edges,omitempty"`
	Severity float64 `json:"severity,omitempty"`
	Period   int     `json:"period,omitempty"`
	CloseFor int     `json:"closeFor,omitempty"`
}

// handleObservations is the telemetry ingest endpoint: it folds the
// request's observation batch (and/or a deterministic scenario step)
// into the city's ingestor, which publishes one new snapshot into the
// traffic store — the same store the rush-hour sequence feeds, with
// producer serialization guaranteeing gapless versions between the two.
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	var req observationsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c, ok := s.cities[req.City]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown city")
		return
	}
	if c.Ingest == nil {
		httpError(w, http.StatusConflict, "city has no ingest path")
		return
	}
	obs := req.Observations
	if req.Scenario != "" {
		kind, err := telemetry.ParseKind(req.Scenario)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		sc := telemetry.Scenario{
			Kind: kind, Seed: req.Seed, Edges: req.Edges,
			Severity: req.Severity, Period: req.Period, CloseFor: req.CloseFor,
		}
		obs = append(obs, sc.Observations(c.Graph, req.Step)...)
	}
	snap, err := c.Ingest.Advance(obs, req.DecaySteps)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.verbose {
		log.Printf("server: %s ingested %d observations (decay %.2g) -> weights v%d",
			req.City, len(obs), req.DecaySteps, snap.Version())
	}
	st := c.Ingest.Stats()
	closed := c.Ingest.ClosedEdges()
	closedIDs := make([]int, len(closed))
	for i, e := range closed {
		closedIDs[i] = int(e)
	}
	writeJSON(w, struct {
		City           string `json:"city"`
		Applied        int    `json:"applied"`
		WeightVersion  uint64 `json:"weightVersion"`
		PerturbedEdges int    `json:"perturbedEdges"`
		ClosedEdges    []int  `json:"closedEdges,omitempty"`
		Observations   uint64 `json:"observationsTotal"`
		Publishes      uint64 `json:"publishesTotal"`
	}{req.City, len(obs), uint64(snap.Version()), c.Ingest.Perturbed(), closedIDs, st.Observations, st.Publishes})
}
