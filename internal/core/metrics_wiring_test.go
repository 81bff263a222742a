package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// TestRouterMetricsWiring drives a metrics-equipped router through
// queries, a publish swap and a matrix call, and checks every
// event-driven family fills in: query latency per planner, cache
// hits/misses, customization latency, selection sizes, matrix tables.
func TestRouterMetricsWiring(t *testing.T) {
	g := testCity(t)
	st := weights.NewStore(g.BaseWeights())
	opts := Options{Weights: st, TreeBackend: TreeCHAuto}
	pl := NewPlateaus(g, opts)
	r := NewRouter(nil, []Planner{pl, NewPenalty(g, Options{Weights: st})}, st)

	reg := metrics.NewRegistry()
	m := NewMetrics(reg, "grid")
	r.SetMetrics(m)
	mx := NewMatrixEngineFor(pl, r.Engine())

	for i := 0; i < 3; i++ { // third round hits the result cache
		askAll(r, 0, 143)
	}
	traffic.NewSequence(g, traffic.DefaultModel(5), 0).Advance(st)
	r.Sync()
	askAll(r, 13, 130)
	if _, err := mx.Matrix([]graph.NodeID{0, 5}, []graph.NodeID{130, 143}); err != nil {
		t.Fatalf("matrix: %v", err)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`routing_query_seconds_count{city="grid",planner="Plateaus"}`,
		`routing_query_seconds_count{city="grid",planner="Penalty"}`,
		`routing_result_cache_hits_total{city="grid"}`,
		`routing_result_cache_misses_total{city="grid"}`,
		`routing_customize_seconds_count{city="grid",planner="Plateaus"}`,
		`routing_selection_nodes_count{city="grid"}`,
		`routing_matrix_seconds_count{city="grid"}`,
		`routing_matrix_cells_sum{city="grid"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `routing_query_seconds_count{city="grid",planner="Plateaus"} 0`) {
		t.Fatalf("Plateaus query latency never observed:\n%s", text)
	}
	if hits := m.cacheHits.Value(); hits == 0 {
		t.Fatalf("repeated identical query never hit the result cache")
	}
	// The constructor's initial build predates SetMetrics, so exactly the
	// publish-swap re-customizations are observed — at least one here.
	if c := m.customizeSeconds.With("grid", "Plateaus").Count(); c < 1 {
		t.Fatalf("customize histogram count = %d, want ≥ 1 (publish swap)", c)
	}
	// A second city binds the same families on the same registry without
	// panicking, under its own label.
	m2 := NewMetrics(reg, "other")
	m2.observeQuery("Plateaus", 0, nil)
	sb.Reset()
	reg.WriteTo(&sb)
	if !strings.Contains(sb.String(), `routing_query_seconds_count{city="other",planner="Plateaus"} 1`) {
		t.Fatalf("second city's samples missing")
	}
}

// TestSharedEngineAttributesPerCity pins the multi-city wiring: one
// engine pooled across two routers (the demoserver shape) must
// attribute each query to the city owning its planner. A single
// engine-level bundle made the last SetMetrics win — every city's
// queries landed under one city label.
func TestSharedEngineAttributesPerCity(t *testing.T) {
	g := testCity(t)
	shared := NewEngine(2)
	reg := metrics.NewRegistry()
	type city struct {
		r *Router
		m *Metrics
	}
	mk := func(name string) city {
		st := weights.NewStore(g.BaseWeights())
		r := NewRouter(nil, []Planner{NewPenalty(g, Options{Weights: st})}, st)
		r.SetEngine(shared)
		m := NewMetrics(reg, name)
		r.SetMetrics(m)
		return city{r, m}
	}
	a, b := mk("alpha"), mk("beta")

	askAll(a.r, 0, 143)
	askAll(a.r, 13, 130)
	askAll(b.r, 0, 143)

	var sb strings.Builder
	reg.WriteTo(&sb)
	text := sb.String()
	for _, want := range []string{
		`routing_query_seconds_count{city="alpha",planner="Penalty"} 2`,
		`routing_query_seconds_count{city="beta",planner="Penalty"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q (misattributed across the shared engine):\n%s", want, text)
		}
	}
	// Cache traffic follows the planner's city too: both routers probe
	// the shared engine's cache, so alpha has 2 misses, beta 1.
	if a.m.cacheMisses.Value() != 2 || b.m.cacheMisses.Value() != 1 {
		t.Fatalf("cache misses alpha=%v beta=%v, want 2/1",
			a.m.cacheMisses.Value(), b.m.cacheMisses.Value())
	}
}

// TestMetricsBeforeSharedEngineAttributesPerCity is
// TestSharedEngineAttributesPerCity in the other wiring order: each city
// installs its bundle first and joins the shared engine afterwards. The
// bundle lives on the planners' providers, so the engine swap keeps it.
func TestMetricsBeforeSharedEngineAttributesPerCity(t *testing.T) {
	g := testCity(t)
	shared := NewEngine(2)
	reg := metrics.NewRegistry()
	mk := func(name string) (*Router, *Metrics) {
		st := weights.NewStore(g.BaseWeights())
		r := NewRouter(nil, []Planner{NewPenalty(g, Options{Weights: st})}, st)
		m := NewMetrics(reg, name)
		r.SetMetrics(m)
		r.SetEngine(shared)
		return r, m
	}
	a, am := mk("alpha")
	b, bm := mk("beta")

	askAll(a, 0, 143)
	askAll(a, 13, 130)
	askAll(b, 0, 143)
	askAll(b, 0, 143) // a hit on the shared cache, counted for beta

	var sb strings.Builder
	reg.WriteTo(&sb)
	text := sb.String()
	for _, want := range []string{
		`routing_query_seconds_count{city="alpha",planner="Penalty"} 2`,
		`routing_query_seconds_count{city="beta",planner="Penalty"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q (bundle lost or misattributed across SetEngine):\n%s", want, text)
		}
	}
	if am.cacheMisses.Value() != 2 || am.cacheHits.Value() != 0 ||
		bm.cacheMisses.Value() != 1 || bm.cacheHits.Value() != 1 {
		t.Fatalf("cache alpha=%v/%v beta=%v/%v (misses/hits), want 2/0 and 1/1",
			am.cacheMisses.Value(), am.cacheHits.Value(), bm.cacheMisses.Value(), bm.cacheHits.Value())
	}
}
