// Command bench is the repository's benchmark of record. It builds
// cmd/demoserver, launches it as a child process at its shipped defaults,
// drives it over loopback HTTP with a closed loop of one client, and
// reports end-to-end metrics per workload; a separate traced run times
// every layer under a request in-process. See README.md.
//
// It is a module of its own and runs from the repository root; bench/run.sh
// builds and starts it:
//
//	bash bench/run.sh                         all workloads, then the traced run; one JSON document
//	bash bench/run.sh -duration 5s            the same as a smoke run
//	bash bench/run.sh -workload W -trace 0|1  one workload; last line is the result object BENCHMARK.json describes
//	bash bench/run.sh -compare a.json b.json  judge b against a with the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	schemaVersion  = "bench/v1"
	setupLaunches  = 5
	maxQuietSteal  = 0.02 // above this share of stolen CPU a window is reported as disturbed
	defaultSeconds = 30
)

// row is one workload's results.
type row struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Steal is the share of the machine's CPU time the hypervisor
	// withheld during the end-to-end window.
	Steal    float64           `json:"cpu_steal"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// tally adds the outcome of one stage of a run to the row.
func (r *row) tally(attempted, failed int, failures []string) {
	r.Attempted += attempted
	r.Failed += failed
	r.Failures = append(r.Failures, failures...)
	r.Correct = r.Failed == 0
	if r.EndToEnd != nil {
		r.EndToEnd["fail_ratio"] = specMetric(endToEndSpecs, "fail_ratio", float64(r.Failed)/float64(r.Attempted))
	}
}

func (r *row) setEndToEnd(name string, v float64) {
	if r.EndToEnd == nil {
		r.EndToEnd = map[string]metric{}
	}
	r.EndToEnd[name] = specMetric(endToEndSpecs, name, v)
}

func (r *row) setPerLayer(name string, v float64) {
	if r.PerLayer == nil {
		r.PerLayer = map[string]metric{}
	}
	r.PerLayer[name] = specMetric(perLayerSpecs, name, v)
}

// environment records where a run happened, so that two result files
// can be told apart before they are compared.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load1"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Time       string  `json:"time"`
}

// isolation is the evidence that each workload exercises the layers it
// claims to.
type isolation struct {
	// HotPlannerShare is the cached four-planner fan-out as a share of
	// the handler time of a cache-hitting request.
	HotPlannerShare float64 `json:"hot_planner_share"`
	// CustomizeUnder lists the workloads whose replay recorded
	// customization spans.
	CustomizeUnder []string `json:"customize_under"`
}

type document struct {
	Schema    string       `json:"schema"`
	Env       environment  `json:"env"`
	Workloads []row        `json:"workloads"`
	Budget    []budgetLine `json:"layer_budget,omitempty"`
	Isolation *isolation   `json:"isolation,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's result object (default: all four, then the traced run)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the measured window in seconds")
		duration     = flag.Duration("duration", 0, "length of the measured window as a duration (overrides -seconds; 5s is a smoke run)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced run")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	window := time.Duration(*seconds) * time.Second
	if *duration > 0 {
		window = *duration
	}
	if window < time.Second || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: the window must be at least 1s, -trace 0 or 1, and there are no positional arguments")
		return 2
	}

	// The child dies with the context: on return, on SIGINT, on SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := describeEnvironment(*seed, window)
	if env.Load1 > 0.5 {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average is %.2f; the box is not idle and timings will be noisy\n", env.Load1)
	}
	bin, err := buildServer(ctx)
	if err == nil {
		if *workloadName != "" {
			err = runOne(ctx, bin, *workloadName, *seed, window, *trace == 1)
		} else {
			err = runAll(ctx, bin, env, *seed, window)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// errIncorrect ends a run whose results were printed but whose
// correctness gate did not hold.
var errIncorrect = errors.New("some operations failed or some checks did not hold (see FAILED above)")

// runOne is the driver's entry point: one workload, traced or not, and a
// last line of standard output holding exactly correct, attempted,
// failed and metrics.
func runOne(ctx context.Context, bin, name string, seed uint64, window time.Duration, traced bool) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := row{Name: spec.Name, Why: spec.Why}
	metrics, specs := &r.EndToEnd, endToEndSpecs
	if traced {
		metrics, specs = &r.PerLayer, perLayerSpecs
		tc, err := runTracedChild(ctx, bin, name, seed, window, &r)
		if err != nil {
			return err
		}
		prof, err := profile(tc, seed, replayOps, &r)
		if err != nil {
			return err
		}
		printBudget(os.Stderr, prof.budget())
	} else if err := runEndToEnd(ctx, bin, name, seed, window, &r); err != nil {
		return err
	}
	if err := checkFinite(r); err != nil {
		return err
	}
	printRow(os.Stderr, r)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, s := range specs {
		if !inBenchmarkJSON(s) {
			continue
		}
		m, ok := (*metrics)[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		out.Metrics[s.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// runAll is the run of record: every workload untraced, then the traced
// run, one document on standard output.
func runAll(ctx context.Context, bin string, env environment, seed uint64, window time.Duration) error {
	doc := document{Schema: schemaVersion, Env: env}
	for _, spec := range workloadSpecs {
		r := row{Name: spec.Name, Why: spec.Why}
		fmt.Fprintf(os.Stderr, "bench: %s: end to end, %s window\n", spec.Name, window)
		if err := runEndToEnd(ctx, bin, spec.Name, seed, window, &r); err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, r)
	}
	// End-to-end numbers above came from untraced children; the traced
	// pass below adds the per-layer rows.
	var last *tracedChild
	for i := range doc.Workloads {
		r := &doc.Workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s: traced child\n", r.Name)
		tc, err := runTracedChild(ctx, bin, r.Name, seed, window, r)
		if err != nil {
			return err
		}
		last = tc
	}
	fmt.Fprintln(os.Stderr, "bench: in-process layer profile")
	var shared row
	prof, err := profile(last, seed, replayOps, &shared)
	if err != nil {
		return err
	}
	correct := true
	for i := range doc.Workloads {
		r := &doc.Workloads[i]
		// The in-process profile does not depend on which child ran
		// beside it; every row carries it next to its own child's numbers.
		for name, m := range shared.PerLayer {
			r.PerLayer[name] = m
		}
		r.tally(shared.Attempted, shared.Failed, shared.Failures)
		correct = correct && r.Correct
		printRow(os.Stderr, *r)
		if err := checkFinite(*r); err != nil {
			return err
		}
	}
	doc.Budget = prof.budget()
	doc.Isolation = &isolation{HotPlannerShare: prof.hotShare(), CustomizeUnder: prof.customizeWorkloads()}
	printBudget(os.Stderr, doc.Budget)
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errIncorrect
	}
	return nil
}

// runEndToEnd measures one workload against an untraced child.
func runEndToEnd(ctx context.Context, bin, name string, seed uint64, window time.Duration, r *row) error {
	// Set-up is timed on every launch; the last server is the one the
	// workload then runs against.
	var c *child
	var cities []city
	setups := make([]float64, 0, setupLaunches)
	for i := 0; i < setupLaunches; i++ {
		if c != nil {
			c.stop()
		}
		var setup time.Duration
		var err error
		c, cities, setup, err = launch(ctx, bin)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
	}
	defer c.stop()
	w, err := newWorkload(name, seed, cities)
	if err != nil {
		return err
	}
	res, err := runLoad(ctx, c, w, window, false)
	if err != nil {
		return err
	}
	n := float64(len(res.samples))
	if n == 0 {
		return fmt.Errorf("%s: no request completed inside the window: %v", name, res.failures)
	}
	r.Steal = res.steal
	if res.steal > maxQuietSteal {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: the hypervisor withheld %.0f%% of the CPU during the window; the timings measure the neighbours\n", name, 100*res.steal)
	}
	p50, _ := windowPercentile(res.samples, window, 0.50)
	p90, ok := windowPercentile(res.samples, window, 0.90)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: fewer than %d samples beyond p90 in some sub-window\n", name, tailSamples)
	}
	if len(res.byShape) > 0 {
		for _, q := range []float64{0.5, 0.9} {
			class, share := modeOf(res.byShape, q)
			fmt.Fprintf(os.Stderr, "bench: %s: p%.0f sits in the %s mode (%.0f%% of the samples within 10 points of it)\n", name, 100*q, class, 100*share)
		}
	}
	set := r.setEndToEnd
	set("setup_s", median(setups))
	// Like the percentiles, the two rates are quiet quartiles over the
	// sub-windows.
	var rates, cpuPerReq []float64
	for part, count := range partCounts(res.samples, window) {
		if count == 0 {
			return fmt.Errorf("%s: no request completed in sub-window %d", name, part)
		}
		rates = append(rates, float64(count)*subWindows/window.Seconds())
		cpuPerReq = append(cpuPerReq, ms(res.cpu[part])/float64(count))
	}
	set("rps", quietQuartile(rates, "higher"))
	set("latency_p50_ms", p50)
	set("latency_p90_ms", p90)
	set("cpu_ms_per_req", quietQuartile(cpuPerReq, "lower"))
	set("rss_peak_mb", res.rssPeak)
	set("resp_kb_per_req", float64(res.bytes)/1024/n)
	set("requests", n)
	if name == wlLiveTraffic {
		if len(res.fresh) == 0 || len(res.writes) == 0 {
			return fmt.Errorf("%s: no write became visible inside the window: %v", name, res.failures)
		}
		set("publish_to_fresh_p50_ms", percentileOf(res.fresh, 0.5, time.Millisecond))
		set("write_p50_ms", percentileOf(res.writes, 0.5, time.Millisecond))
	}
	r.tally(res.attempted, res.failed, res.failures)
	return nil
}

// tracedChild is what the child half of a traced run leaves for the
// in-process half.
type tracedChild struct {
	sh     *shipped
	cities []city
}

// runTracedChild launches a child beside an in-process twin, holds the
// two to byte parity, and takes from the child the per-layer numbers
// only a real server has: cache hit ratio, tail latency, and what
// net/http adds to a handler.
func runTracedChild(ctx context.Context, bin, name string, seed uint64, window time.Duration, r *row) (*tracedChild, error) {
	sh, err := newShipped()
	if err != nil {
		return nil, err
	}
	c, cities, _, err := launch(ctx, bin)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if err := sh.parityGate(ctx, c, seed, cities); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, cities)
	if err != nil {
		return nil, err
	}
	// Half the window: the traced run also has the in-process profile to
	// fit into the same budget.
	half := window / 2
	res, err := runLoad(ctx, c, w, half, true)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, len(res.samples))
	for i, s := range res.samples {
		lat[i] = ms(s.lat)
	}
	sort.Float64s(lat)
	if !hasTail(len(lat), 0.99) {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: only %d samples, fewer than %d beyond p99\n", name, len(lat), tailSamples)
	}
	overhead, err := httpOverhead(ctx, c, sh, cities)
	if err != nil {
		return nil, err
	}
	set := r.setPerLayer
	hitRatio := 0.0 // matrix_mixed never looks the result cache up
	if lookups := res.cacheHits + res.cacheMisses; lookups > 0 {
		hitRatio = res.cacheHits / lookups
	}
	set("core.engine.cache_hit_ratio", hitRatio)
	set("server.latency_p99_ms", percentile(lat, 0.99))
	set("server.http_overhead_us", overhead)
	if name == wlLiveTraffic {
		set("bench.writer_lag_p90_ms", percentileOf(res.writerLag, 0.9, time.Millisecond))
	}
	r.tally(res.attempted, res.failed, res.failures)
	return &tracedChild{sh: sh, cities: cities}, nil
}

// profile runs the in-process layer profile on the study a traced child
// was checked against, adds its metrics to r and writes the spans out.
func profile(tc *tracedChild, seed uint64, ops int, r *row) (*profiler, error) {
	var fail failures
	p, err := newProfiler(tc.sh, seed, tc.cities, ops, &fail)
	if err != nil {
		return nil, err
	}
	values, err := p.run()
	if err != nil {
		return nil, err
	}
	for name, v := range values {
		r.setPerLayer(name, v)
	}
	r.tally(p.checks, fail.count, fail.first)
	return p, p.tr.write(filepath.Join(outDir, "trace.jsonl"))
}

func specMetric(specs []metricSpec, name string, v float64) metric {
	s, ok := findSpec(specs, name)
	if !ok {
		panic("bench: metric " + name + " is not in spec.go")
	}
	return metric{Value: v, Unit: s.Unit, Better: s.Better, Bound: s.Bound, BoundAbs: s.Abs}
}

// checkFinite rejects a row in which some metric had no samples behind
// it: a NaN must not pass for a measurement.
func checkFinite(r row) error {
	for _, group := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		for name, m := range group {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("%s: metric %s is %v: no samples behind it", r.Name, name, m.Value)
			}
		}
	}
	return nil
}

// inBenchmarkJSON reports whether BENCHMARK.json lists the metric: it
// must exist on every workload, be judged by a relative bound or none,
// and have a direction.
func inBenchmarkJSON(s metricSpec) bool {
	return s.Only == "" && !s.Abs && s.Better != ""
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func describeEnvironment(seed uint64, window time.Duration) environment {
	env := environment{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		WindowS:    window.Seconds(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64) // a malformed file reads as 0: no warning
		}
	}
	return env
}

func printRow(w *os.File, r row) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tcorrect=%v attempted=%d failed=%d\n", r.Name, r.Correct, r.Attempted, r.Failed)
	for _, group := range []struct {
		specs  []metricSpec
		values map[string]metric
	}{{endToEndSpecs, r.EndToEnd}, {perLayerSpecs, r.PerLayer}} {
		for _, s := range group.specs {
			m, ok := group.values[s.Name]
			if !ok {
				continue
			}
			bound := ""
			switch {
			case s.Abs:
				bound = fmt.Sprintf("bound +%g abs", s.Bound)
			case s.Bound > 0:
				bound = fmt.Sprintf("bound %g", s.Bound)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", s.Name, m.Value, m.Unit, s.Better, bound)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(tw, "  FAILED\t%s\n", f)
	}
	tw.Flush()
}

func printBudget(w *os.File, lines []budgetLine) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "layer budget, %s /api/routes cache miss\tp50 us\tshare of handler\n", refCity)
	for _, l := range lines {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\n", l.Name, l.P50US, 100*l.Share)
	}
	tw.Flush()
}
