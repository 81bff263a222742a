package main

// This file is the schema: which workloads exist and why, and every
// metric's name, unit, direction and regression bound. BENCHMARK.json
// restates the part of it that holds on every workload, and a test pins
// the two together.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlRoutesUnique, "GET /api/routes, never-repeated pairs: result cache never hits, so the four planners and the engine fan-out do the work"},
	{wlRoutesHot, "GET /api/routes, Zipf over 64 pairs per city: cache hit ratio ~1, so parsing, snapping, Path.Points, JSON and net/http do the work"},
	{wlMatrixMixed, "POST /api/matrix, k=4/16/64 clustered and spread: one selection plus k sweeps, no join or route assembly; same ch layer used differently"},
	{wlLiveTraffic, "one routes reader beside one writer publishing traffic steps, observations and closures: customization, view swap and cache eviction do work"},
}

// metricSpec describes one metric. Better is "lower", "higher" or empty
// for a count that is reported but never judged. Bound is the relative
// worsening that counts as a regression (absolute when Abs). Only, when
// set, names the single workload the metric exists on; it is then absent
// from every other row rather than reported as 0.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Abs    bool
	Only   string
	// MediansOnly exempts the metric from the spread rule of -compare, as
	// the driver exempts setup_s: a run launches the server five times,
	// not thousands, and one slow exec would call every comparison
	// unresolved.
	MediansOnly bool
}

// The bounds come from the 2-core sandbox this was written on (README:
// "Why these bounds"). Every timing carries the driver's maximum, 0.25:
// ten-seed spreads are 3-6 % in a quiet hour (9 % for the sub-millisecond
// p90 of routes_hot), but the box has hours in which everything runs a
// fifth slower, and a bound is only useful if an unchanged program stays
// inside it on such a day too. The two metrics that are not timings carry
// at least three times their widest ten-seed spread.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, MediansOnly: true},
	{Name: "rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "resp_kb_per_req", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0.001, Abs: true},
	{Name: "publish_to_fresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: wlLiveTraffic},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: wlLiveTraffic},
	{Name: "requests", Unit: "count"},
}

// Per-layer metrics: layer = package name. They carry no bound; each is
// predicted to move one end-to-end metric on one workload (README).
var perLayerSpecs = []metricSpec{
	// server
	{Name: "server.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_miss_residual_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_self_us", Unit: "us", Better: "lower"},
	{Name: "server.matrix_handler_k16_us", Unit: "us", Better: "lower"},
	{Name: "server.matrix_handler_k64_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes_routes", Unit: "bytes", Better: "lower"},
	{Name: "server.resp_bytes_matrix_k64", Unit: "bytes", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	// spatial
	{Name: "spatial.nearest_us", Unit: "us", Better: "lower"},
	{Name: "spatial.build_ms", Unit: "ms", Better: "lower"},
	// core.engine
	{Name: "core.engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.engine.fanout_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.engine.fanout_p90_us", Unit: "us", Better: "lower"},
	{Name: "core.engine.parallel_speedup", Unit: "ratio", Better: "higher"},
	// planners
	{Name: "core.commercial.alternatives_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.commercial.alternatives_p90_us", Unit: "us", Better: "lower"},
	{Name: "core.plateaus.alternatives_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.plateaus.alternatives_p90_us", Unit: "us", Better: "lower"},
	{Name: "core.dissimilarity.alternatives_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.dissimilarity.alternatives_p90_us", Unit: "us", Better: "lower"},
	{Name: "core.penalty.alternatives_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.penalty.alternatives_p90_us", Unit: "us", Better: "lower"},
	{Name: "core.plateaus.join_us", Unit: "us", Better: "lower"},
	// core.matrix
	{Name: "core.matrix.table_clustered_k16_us", Unit: "us", Better: "lower"},
	{Name: "core.matrix.table_clustered_k64_us", Unit: "us", Better: "lower"},
	{Name: "core.matrix.table_spread_k16_us", Unit: "us", Better: "lower"},
	{Name: "core.matrix.table_spread_k64_us", Unit: "us", Better: "lower"},
	{Name: "core.matrix.selection_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.matrix.restricted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.matrix.selection_targets", Unit: "count", Better: "lower"},
	// core.router
	{Name: "core.router.traffic_publish_to_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "core.router.public_publish_to_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "core.router.publish_to_fresh_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "core.router.mixed_version_responses", Unit: "count", Better: "lower"},
	// ch
	{Name: "ch.dist_p50_us", Unit: "us", Better: "lower"},
	{Name: "ch.dist_p90_us", Unit: "us", Better: "lower"},
	{Name: "ch.sweep_full_pair_us", Unit: "us", Better: "lower"},
	{Name: "ch.sweep_full_pair_perfect_us", Unit: "us", Better: "lower"},
	{Name: "ch.select_us", Unit: "us", Better: "lower"},
	{Name: "ch.sweep_restricted_us", Unit: "us", Better: "lower"},
	{Name: "ch.selection_nodes", Unit: "count", Better: "lower"},
	{Name: "ch.arcs", Unit: "count", Better: "lower"},
	{Name: "ch.elim_height", Unit: "count", Better: "lower"},
	// cch
	{Name: "cch.order_ms", Unit: "ms", Better: "lower"},
	{Name: "cch.preprocess_ms", Unit: "ms", Better: "lower"},
	{Name: "cch.customize_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "cch.customize_w2_ms", Unit: "ms", Better: "lower"},
	{Name: "cch.customize_perfect_ms", Unit: "ms", Better: "lower"},
	{Name: "cch.triangles", Unit: "count", Better: "lower"},
	{Name: "cch.pairs", Unit: "count", Better: "lower"},
	// sp, path
	{Name: "sp.tree_us", Unit: "us", Better: "lower"},
	{Name: "sp.shortest_path_us", Unit: "us", Better: "lower"},
	{Name: "sp.bidirectional_us", Unit: "us", Better: "lower"},
	{Name: "path.points_us", Unit: "us", Better: "lower"},
	// write path
	{Name: "weights.publish_us", Unit: "us", Better: "lower"},
	{Name: "weights.ban_us", Unit: "us", Better: "lower"},
	{Name: "traffic.weights_at_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.advance_us", Unit: "us", Better: "lower"},
	{Name: "metrics.scrape_us", Unit: "us", Better: "lower"},
	{Name: "metrics.scrape_bytes", Unit: "bytes", Better: "lower"},
	// set-up
	{Name: "citygen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.new_study_ms", Unit: "ms", Better: "lower"},
	// harness
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.writer_lag_p90_ms", Unit: "ms", Better: "lower", Only: wlLiveTraffic},
}

// metric is one reported value. Bound and Better are stated on
// end-to-end metrics so a result file can be judged on its own.
type metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	BoundAbs bool    `json:"bound_abs,omitempty"`
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
