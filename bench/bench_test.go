package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// testCities are the shipped bounding boxes (seed 2022), as /api/cities
// reports them.
var testCities = []city{
	{"Melbourne", -37.91846089925013, 144.83036628193048, -37.708739100749874, 145.0958337180695},
	{"Dhaka", 23.771665673699587, 90.37027805910724, 23.848933065671304, 90.45472863823667},
	{"Copenhagen", 55.59929793485454, 12.432094874118754, 55.752902065145456, 12.704505125881248},
}

var allWorkloads = []string{wlRoutesUnique, wlRoutesHot, wlMatrixMixed, wlLiveTraffic}

func mustWorkload(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := newWorkload(name, seed, testCities)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// stream renders the first n requests of both phases and clients, and
// the writer's ticks, as bytes.
func stream(w *workload, n int) []byte {
	var b bytes.Buffer
	for _, ph := range []phase{phaseWarm, phaseMeasure} {
		for client := 0; client < numClients; client++ {
			for i := 0; i < n; i++ {
				r := w.request(ph, client, i)
				fmt.Fprintf(&b, "%s %s %s\n", r.Method, r.Path, r.Body)
			}
		}
	}
	ticks := w.writer()
	for tick := 0; tick < n; tick++ {
		r := ticks.tick(tick)
		fmt.Fprintf(&b, "%s %s %s\n", r.Method, r.Path, r.Body)
	}
	return b.Bytes()
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range allWorkloads {
		a := stream(mustWorkload(t, name, 7), 200)
		b := stream(mustWorkload(t, name, 7), 200)
		c := stream(mustWorkload(t, name, 8), 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, same request stream", name)
		}
	}
}

func TestWarmUpAndMeasuredStreamsAreDisjoint(t *testing.T) {
	w := mustWorkload(t, wlRoutesUnique, 7)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[w.request(phaseWarm, 0, i).Path] = true
	}
	for i := 0; i < 500; i++ {
		if p := w.request(phaseMeasure, 0, i).Path; seen[p] {
			t.Fatalf("measured request %d repeats a warm-up request: %s", i, p)
		}
	}
}

func TestRoutesPairsAreSeparated(t *testing.T) {
	for _, name := range []string{wlRoutesUnique, wlRoutesHot, wlLiveTraffic} {
		w := mustWorkload(t, name, 3)
		for i := 0; i < 2000; i++ {
			r := w.request(phaseMeasure, i%numClients, i)
			if d := haversineM(r.Pair.S, r.Pair.T); d < minSeparationM-1 { // coordinates are rounded to ~0.1 m
				t.Fatalf("%s request %d: s and t only %.0f m apart", name, i, d)
			}
			c := testCities[r.City]
			for _, p := range []point{r.Pair.S, r.Pair.T} {
				if p.Lat < c.MinLat-1e-6 || p.Lat > c.MaxLat+1e-6 || p.Lon < c.MinLon-1e-6 || p.Lon > c.MaxLon+1e-6 {
					t.Fatalf("%s request %d: %v outside %s", name, i, p, c.Name)
				}
			}
		}
	}
	// The measure behind the filter tells 799 m from 805 m.
	a := point{-37.8, 144.9}
	if haversineM(a, point{-37.8 + 799.0/111320, 144.9}) >= minSeparationM {
		t.Error("799 m apart passes the separation filter")
	}
	if haversineM(a, point{-37.8 + 805.0/111320, 144.9}) < minSeparationM {
		t.Error("805 m apart fails the separation filter")
	}
}

func TestUniqueRoutesNeverRepeat(t *testing.T) {
	w := mustWorkload(t, wlRoutesUnique, 11)
	seen := map[string]bool{}
	for client := 0; client < numClients; client++ {
		for i := 0; i < 5000; i++ {
			r := w.request(phaseMeasure, client, i)
			if seen[r.Path] {
				t.Fatalf("client %d request %d repeats %s", client, i, r.Path)
			}
			if r.HotKey != -1 {
				t.Fatalf("unique request carries hot key %d", r.HotKey)
			}
			seen[r.Path] = true
		}
	}
}

func TestHotSetSizeAndSkew(t *testing.T) {
	w := mustWorkload(t, wlRoutesHot, 5)
	// The warm-up touches every pair exactly once before drawing.
	touched := map[int]int{}
	for g := 0; g < hotPairs*len(testCities); g++ {
		touched[w.request(phaseWarm, g%numClients, g/numClients).HotKey]++
	}
	if len(touched) != hotPairs*len(testCities) {
		t.Fatalf("warm-up touches %d distinct pairs, want %d", len(touched), hotPairs*len(testCities))
	}
	const n = 60000
	count := map[int]int{}
	paths := map[string]bool{}
	for i := 0; i < n; i++ {
		r := w.request(phaseMeasure, i%numClients, i/numClients)
		count[r.HotKey]++
		paths[r.Path] = true
	}
	if len(count) > hotPairs*len(testCities) || len(paths) != len(count) {
		t.Fatalf("%d keys, %d URLs: the hot set must be %d URLs at most", len(count), len(paths), hotPairs*len(testCities))
	}
	// Zipf(1.1) over 64 ranks gives rank 1 a share of 1/H(64,1.1).
	h := 0.0
	for k := 1; k <= hotPairs; k++ {
		h += 1 / math.Pow(float64(k), zipfExponent)
	}
	for ci := range testCities {
		got := float64(count[ci*hotPairs]) / (n / float64(len(testCities)))
		if math.Abs(got-1/h) > 0.02 {
			t.Errorf("city %d: top pair drawn with share %.3f, want %.3f", ci, got, 1/h)
		}
	}
	// The set is part of the workload's definition, not of the seed.
	other := mustWorkload(t, wlRoutesHot, 6)
	if w.hotRequest(1, 17).Path != other.hotRequest(1, 17).Path {
		t.Error("hot pairs change with the run seed")
	}
}

func TestMatrixShapeShares(t *testing.T) {
	w := mustWorkload(t, wlMatrixMixed, 9)
	const n = 20000
	type shape struct {
		k         int
		clustered bool
	}
	count := map[shape]int{}
	for i := 0; i < n; i++ {
		r := w.request(phaseMeasure, i%numClients, i/numClients)
		if len(r.Sources) != r.K || len(r.Targets) != r.K {
			t.Fatalf("request %d: k=%d with %d sources and %d targets", i, r.K, len(r.Sources), len(r.Targets))
		}
		// Clustered: every point within the radius of one centre.
		clustered := false
		for _, c := range w.centre[r.City] {
			all := true
			for _, p := range append(append([]point(nil), r.Sources...), r.Targets...) {
				if haversineM(c, p) > clusterRadiusM+1 {
					all = false
					break
				}
			}
			clustered = clustered || all
		}
		count[shape{r.K, clustered}]++
		var body struct {
			City    string
			Sources [][2]float64
			Targets [][2]float64
		}
		if err := json.Unmarshal([]byte(r.Body), &body); err != nil || len(body.Sources) != r.K || body.City != testCities[r.City].Name {
			t.Fatalf("request %d: body does not decode to a %dx%d request: %v", i, r.K, r.K, err)
		}
	}
	// Whole cycles hold every shape in its exact share.
	for _, s := range matrixShapes {
		if got, want := count[shape{s.k, s.clustered}], n*s.slots/matrixCycle; got != want {
			t.Errorf("shape %s: %d of %d requests, want exactly %d", s.name, got, n, want)
		}
	}
}

func TestWriterPattern(t *testing.T) {
	w := mustWorkload(t, wlLiveTraffic, 2)
	kinds := map[reqKind]int{}
	perCity := map[int]map[reqKind]bool{}
	ticks := w.writer()
	for tick := 0; tick < 24; tick++ {
		r := ticks.tick(tick)
		kinds[r.Kind]++
		if perCity[r.City] == nil {
			perCity[r.City] = map[reqKind]bool{}
		}
		perCity[r.City][r.Kind] = true
	}
	if kinds[kindPublish] != 15 || kinds[kindObservations] != 6 || kinds[kindBan] != 3 {
		t.Errorf("24 ticks gave %v, want 15 publishes, 6 observation batches, 3 bans", kinds)
	}
	for ci, seen := range perCity {
		if len(seen) != 3 {
			t.Errorf("city %d saw only %v in 24 ticks", ci, seen)
		}
	}
}

func TestWindowPercentile(t *testing.T) {
	window := 24 * time.Second
	part := window / subWindows
	var samples []sample
	// Twelve sub-windows whose medians are 1..12 ms, in shuffled order: the
	// metric is the third smallest of those — the edge of the quietest
	// quarter — not the pooled median and not the median of the parts.
	for i, latMS := range []int{7, 12, 3, 9, 1, 5, 11, 2, 8, 4, 10, 6} {
		for j := 0; j < 100; j++ {
			samples = append(samples, sample{
				end: time.Duration(i)*part + time.Duration(j)*part/100,
				lat: time.Duration(latMS) * time.Millisecond,
			})
		}
	}
	// A sample completing after the window closed belongs to no part.
	samples = append(samples, sample{end: window + time.Millisecond, lat: time.Hour})
	got, ok := windowPercentile(samples, window, 0.5)
	if got != 3 || !ok {
		t.Errorf("quiet quartile of sub-window medians = %v (ok=%v), want 3 ms", got, ok)
	}
	// 100 samples per part leave 10 beyond p90 but only 1 beyond p99.
	if _, ok := windowPercentile(samples, window, 0.90); !ok {
		t.Error("p90 of 100 samples per part has 10 samples beyond it and must be reportable")
	}
	if _, ok := windowPercentile(samples, window, 0.99); ok {
		t.Error("p99 of 100 samples per part has 1 sample beyond it and must not be reportable")
	}
	if !hasTail(1000, 0.99) || hasTail(999, 0.99) {
		t.Error("the tail rule is: at least 10 samples beyond the quantile")
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(sorted, 0.5) != 5 || percentile(sorted, 0.9) != 9 || percentile(sorted, 0.99) != 10 {
		t.Error("percentile is nearest-rank")
	}
	// Better-higher metrics take the mirror image: the third largest of
	// twelve. A disturbed majority of parts moves neither.
	rates := []float64{100, 101, 99, 60, 55, 70, 98, 65, 50, 45, 40, 35}
	if got := quietQuartile(rates, "higher"); got != 99 {
		t.Errorf("quiet quartile of rates = %v, want 99", got)
	}
	lats := []float64{10, 10.1, 9.9, 15, 17, 14, 10.2, 16, 19, 21, 25, 30}
	if got := quietQuartile(lats, "lower"); got != 10.1 {
		t.Errorf("quiet quartile of latencies = %v, want 10.1", got)
	}
	if !math.IsNaN(quietQuartile(nil, "lower")) {
		t.Error("no parts, no value")
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (demo) server (x)) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 567 0 0 20 0 7 0 880000 1500000000 70000 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	if ticks, err := parseStatCPU([]byte(stat)); err != nil || ticks != 1234+567 {
		t.Errorf("parseStatCPU = %d, %v; want %d", ticks, err, 1234+567)
	}
	if _, err := parseStatCPU([]byte("4242 (demoserver) S 1 2")); err == nil {
		t.Error("a truncated stat line must be rejected")
	}
	hostStat := "cpu  1000 20 300 8000 50 0 30 600 0 0\ncpu0 500 10 150 4000 25 0 15 300 0 0\n"
	if steal, total, err := parseHostSteal([]byte(hostStat)); err != nil || steal != 600 || total != 10000 {
		t.Errorf("parseHostSteal = %d of %d, %v; want 600 of 10000", steal, total, err)
	}
	if _, _, err := parseHostSteal([]byte("cpu 1 2 3 4\n")); err == nil {
		t.Error("a cpu line without a steal column must be rejected")
	}
	status := "Name:\tdemoserver\nVmPeak:\t 1300000 kB\nVmSize:\t 1200000 kB\nVmHWM:\t  411648 kB\nVmRSS:\t  300000 kB\n"
	if kb, err := parseStatusHWM([]byte(status)); err != nil || kb != 411648 {
		t.Errorf("parseStatusHWM = %d, %v; want 411648", kb, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("a status file without VmHWM must be rejected")
	}
}

func TestChecks(t *testing.T) {
	route := `{"points":[[1,2],[3,4],[5,6]],"minutes":3,"km":1.5}`
	approach := func(label string, version int, routes ...string) string {
		return fmt.Sprintf(`{"label":%q,"weightVersion":%d,"routes":[%s]}`, label, version, strings.Join(routes, ","))
	}
	body := func(approaches ...string) []byte {
		return []byte(`{"sNode":[1,2],"tNode":[5,6],"approaches":[` + strings.Join(approaches, ",") + `]}`)
	}
	good := body(approach("A", 4, route), approach("B", 2, route, route), approach("C", 2, route), approach("D", 3, route))
	if _, err := checkRoutes(good, false); err != nil {
		t.Errorf("good body rejected: %v", err)
	}
	if v, ok := scanVersions(good); !ok || v != [4]uint64{4, 2, 2, 3} {
		t.Errorf("scanVersions = %v, %v", v, ok)
	}
	bad := map[string][]byte{
		"three approaches": body(approach("A", 1, route), approach("B", 1, route), approach("C", 1, route)),
		"wrong label":      body(approach("A", 1, route), approach("C", 1, route), approach("B", 1, route), approach("D", 1, route)),
		"no routes":        body(approach("A", 1), approach("B", 1, route), approach("C", 1, route), approach("D", 1, route)),
		"four routes":      body(approach("A", 1, route, route, route, route), approach("B", 1, route), approach("C", 1, route), approach("D", 1, route)),
		"wrong endpoint":   body(approach("A", 1, `{"points":[[1,2],[9,9]]}`), approach("B", 1, route), approach("C", 1, route), approach("D", 1, route)),
	}
	for name, b := range bad {
		if _, err := checkRoutes(b, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := checkRoutes(bad["no routes"], true); err != nil {
		t.Errorf("under live closures an approach may find no route: %v", err)
	}

	tr := newVersionTracker(1)
	if err := tr.observe(0, [4]uint64{1, 1, 1, 1}); err != nil || tr.mixed != 0 {
		t.Errorf("first observation: %v, mixed %d", err, tr.mixed)
	}
	if err := tr.observe(0, [4]uint64{2, 1, 2, 2}); err != nil || tr.mixed != 1 {
		t.Errorf("B behind C and D is a mixed response, not an error: %v, mixed %d", err, tr.mixed)
	}
	if err := tr.observe(0, [4]uint64{1, 2, 2, 2}); err == nil {
		t.Error("approach A going back a version must be an error")
	}

	m1 := []byte(`{"sources":[[1,1],[2,2]],"targets":[[1,1],[2,2]],"seconds":[[0,5.5],[null,0]],"weightVersion":1,"selectionHit":false,"restricted":true}`)
	m2 := bytes.Replace(m1, []byte(`"selectionHit":false`), []byte(`"selectionHit":true`), 1)
	first, err := checkMatrix(m1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkMatrix(m1, 3); err == nil {
		t.Error("a 2x2 table passes for 3x3")
	}
	second, _ := checkMatrix(m2, 2)
	if err := checkMatrixRepeat(first, second); err != nil {
		t.Errorf("identical repeat with a selection hit rejected: %v", err)
	}
	if err := checkMatrixRepeat(first, first); err == nil {
		t.Error("a repeat that misses the selection cache must be rejected")
	}
	moved, _ := checkMatrix(bytes.Replace(m2, []byte("5.5"), []byte("5.6"), 1), 2)
	if err := checkMatrixRepeat(first, moved); err == nil {
		t.Error("a repeat with different seconds must be rejected")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "rps", Better: "higher", Bound: 0.07}
	abs := metricSpec{Name: "fail_ratio", Better: "lower", Bound: 0.001, Abs: true}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"5% slower is inside 7%", lower, steady, scale(steady, 1.05), verdictOK},
		{"10% slower", lower, steady, scale(steady, 1.10), verdictRegressed},
		{"10% faster", lower, steady, scale(steady, 0.90), verdictOK},
		{"10% less throughput", higher, steady, scale(steady, 0.90), verdictRegressed},
		{"10% more throughput", higher, steady, scale(steady, 1.10), verdictOK},
		{"noisy sides cannot be called", lower, []float64{8, 9, 10, 11, 12}, []float64{8, 9, 10, 11, 12}, verdictUnresolved},
		{"absolute bound held", abs, []float64{0}, []float64{0.0005}, verdictOK},
		{"absolute bound broken", abs, []float64{0}, []float64{0.002}, verdictRegressed},
	}
	for _, c := range cases {
		if _, _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * f
	}
	return out
}

func TestCompareSeries(t *testing.T) {
	doc := func(p50 float64) document {
		return document{Schema: schemaVersion, Workloads: []row{{
			Name:     wlRoutesHot,
			EndToEnd: map[string]metric{"latency_p50_ms": {Value: p50, Unit: "ms"}, "requests": {Value: 1000, Unit: "count"}},
		}}}
	}
	var out bytes.Buffer
	if code := compareSeries(&out, []document{doc(1), doc(1.01)}, []document{doc(1.0), doc(1.02)}); code != 0 {
		t.Errorf("A/A comparison exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSeries(&out, []document{doc(1), doc(1.01)}, []document{doc(1.4), doc(1.41)}); code == 0 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 40%% regression exits %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "requests") {
		t.Error("requests has no direction and must not be judged")
	}
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to spec.go: the file
// restates every workload, and every metric that exists on all of them
// and is judged by a relative bound or none.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds%subWindows != 0 {
		t.Errorf("run_seconds %d does not split into %d equal sub-windows of whole seconds", file.RunSeconds, subWindows)
	}
	if fmt.Sprint(file.Workloads) != fmt.Sprint(workloadSpecs) {
		t.Errorf("workloads differ:\n file %v\n spec %v", file.Workloads, workloadSpecs)
	}
	for _, w := range file.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var wantE2E, gotE2E, wantLayer, gotLayer []string
	for _, s := range endToEndSpecs {
		if inBenchmarkJSON(s) {
			wantE2E = append(wantE2E, fmt.Sprint(s.Name, s.Unit, s.Better, s.Bound))
		}
	}
	for _, m := range file.EndToEnd {
		gotE2E = append(gotE2E, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, s := range perLayerSpecs {
		if inBenchmarkJSON(s) {
			wantLayer = append(wantLayer, fmt.Sprint(s.Name, s.Unit, s.Better))
		}
	}
	for _, m := range file.PerLayer {
		gotLayer = append(gotLayer, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	if fmt.Sprint(gotE2E) != fmt.Sprint(wantE2E) {
		t.Errorf("end_to_end differs:\n file %v\n spec %v", gotE2E, wantE2E)
	}
	if fmt.Sprint(gotLayer) != fmt.Sprint(wantLayer) {
		t.Errorf("per_layer differs:\n file %v\n spec %v", gotLayer, wantLayer)
	}
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the schema's limits", len(file.EndToEnd), len(file.PerLayer))
	}
}

// TestSmoke drives the real thing briefly: a live_traffic window against
// a child, then a traced run with parity gate, in-process profile and
// oracle checks. Skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the demo server")
	}
	t.Chdir("..")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	window := 2 * time.Second

	live := row{Name: wlLiveTraffic}
	if err := runEndToEnd(ctx, bin, wlLiveTraffic, 1, window, &live); err != nil {
		t.Fatal(err)
	}
	if !live.Correct {
		t.Errorf("live_traffic: %d of %d operations failed: %v", live.Failed, live.Attempted, live.Failures)
	}
	for _, s := range endToEndSpecs {
		if m, ok := live.EndToEnd[s.Name]; !ok || (m.Value <= 0 && s.Name != "fail_ratio") {
			t.Errorf("live_traffic: %s = %v (present %v)", s.Name, m.Value, ok)
		}
	}

	traced := row{Name: wlRoutesUnique}
	tc, err := runTracedChild(ctx, bin, wlRoutesUnique, 1, window, &traced)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile(tc, 1, 120, &traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFinite(traced); err != nil {
		t.Error(err)
	}
	if !traced.Correct {
		t.Errorf("traced run: %d of %d checks failed: %v", traced.Failed, traced.Attempted, traced.Failures)
	}
	for _, s := range perLayerSpecs {
		if _, ok := traced.PerLayer[s.Name]; !ok && inBenchmarkJSON(s) {
			t.Errorf("traced run: %s was not measured", s.Name)
		}
	}
	// Each workload isolates what it claims to.
	if r := traced.PerLayer["core.engine.cache_hit_ratio"].Value; r >= 0.02 {
		t.Errorf("routes_unique hit the result cache: ratio %v", r)
	}
	if share := prof.hotShare(); share >= 0.10 {
		t.Errorf("planners are %.0f%% of a cache-hitting request, want < 10%%", 100*share)
	}
	if got := prof.customizeWorkloads(); len(got) != 1 || got[0] != wlLiveTraffic {
		t.Errorf("customization spans under %v, want only %s", got, wlLiveTraffic)
	}
}
