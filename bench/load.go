package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	warmUp        = 3 * time.Second
	writerPeriod  = 250 * time.Millisecond
	freshTimeout  = 5 * time.Second
	freshPoll     = 2 * time.Millisecond
	replaySamples = 200 // post-window requests that get full checks
	// generatorGCPercent lets the generator's heap (a few MB live) grow
	// tenfold between collections instead of doubling.
	generatorGCPercent = 1000
	maxFailureLog      = 8
)

// op is one measured-phase request of a reader client, kept so the
// post-window replay can compare bytes.
type op struct {
	sample
	status int
	bytes  int
	crc    uint32
	hotKey int    // request.HotKey
	shape  string // request.Shape
}

// failures collects failed operations across goroutines.
type failures struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < maxFailureLog {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// loadResult is what one workload run against a child yields.
type loadResult struct {
	samples   []sample // 2xx reader requests completed inside the window
	bytes     int64    // their body bytes
	attempted int      // every operation sent: reads, writes, probes, checks
	failed    int
	failures  []string
	cpu       [subWindows]time.Duration // server CPU per sub-window
	rssPeak   float64                   // MiB, at window end
	steal     float64                   // share of the machine's CPU time the hypervisor withheld over the window
	// result-cache lookups over the window, as the server counts them
	// (scraped runs only)
	cacheHits, cacheMisses float64

	// matrix_mixed only: latencies (ms) per request shape
	byShape map[string][]float64

	// live_traffic only
	fresh     []time.Duration // write sent -> first response at its version
	writes    []time.Duration // round trip of the write call
	writerLag []time.Duration // how late each tick fired
	mixed     int             // responses whose B/C/D versions differ
}

// loader drives one workload against one child.
type loader struct {
	c         *child
	w         *workload
	window    time.Duration
	t0        time.Time // warm-up start
	fail      failures
	attempted atomic.Int64
}

func (l *loader) warmEnd() time.Time { return l.t0.Add(warmUp) }
func (l *loader) end() time.Time     { return l.t0.Add(warmUp + l.window) }

// conn is one keep-alive connection to the child.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		},
		base: base,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends r and returns the status and the body; the body aliases the
// connection's buffer and is valid until the next call.
func (c *conn) do(ctx context.Context, r request) (int, []byte, error) {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, c.base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// runLoad warms the child up, measures one window and replays a sample
// of the measured requests under full checks.
//
// With scrape set (traced runs only) it also reads the server's own
// result-cache counters on both sides of the window.
func runLoad(ctx context.Context, c *child, w *workload, window time.Duration, scrape bool) (*loadResult, error) {
	// For the length of the load the generator runs on one P with a lazy
	// collector. It shares two cores with the server it measures; at its
	// defaults its idle-time GC workers ran beside a server that wanted
	// both, and routes_hot read 6 % slower and spread twice as wide from
	// run to run (README: "Why these bounds"). The in-process profile that
	// follows a traced load gets the defaults back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(generatorGCPercent))
	l := &loader{c: c, w: w, window: window, t0: time.Now()}
	ops := make([][]op, numClients)
	trackers := make([]*versionTracker, numClients)
	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ops[id], trackers[id] = l.reader(ctx, id)
		}(id)
	}
	res := &loadResult{byShape: map[string][]float64{}}
	if w.name == wlLiveTraffic {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.writer(ctx, res)
		}()
	}

	// Server CPU at every sub-window boundary; peak memory at the end.
	var hits0, misses0, hits1, misses1 float64
	var errs []error
	sleepUntil(ctx, l.warmEnd())
	if scrape {
		var err error
		hits0, misses0, err = c.cacheCounters(ctx)
		errs = append(errs, err)
	}
	steal0, total0, _ := hostSteal() // best effort: a box without the column reports no steal
	cpu, err := c.cpuTime()
	errs = append(errs, err)
	for part := range res.cpu {
		sleepUntil(ctx, l.warmEnd().Add(window*time.Duration(part+1)/subWindows))
		next, err := c.cpuTime()
		errs = append(errs, err)
		res.cpu[part], cpu = next-cpu, next
	}
	if steal1, total1, err := hostSteal(); err == nil && total1 > total0 {
		res.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	res.rssPeak, err = c.rssPeakMiB()
	errs = append(errs, err)
	if scrape {
		hits1, misses1, err = c.cacheCounters(ctx)
		errs = append(errs, err)
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return nil, err
	}
	res.cacheHits, res.cacheMisses = hits1-hits0, misses1-misses0

	crcByKey := make(map[int]uint32)
	for id := range ops {
		for i, o := range ops[id] {
			if o.status != http.StatusOK {
				if o.status != 0 { // transport errors were counted when they happened
					l.fail.add("client %d request %d: status %d", id, i, o.status)
				}
				continue
			}
			// Identical URL, identical bytes: planners are deterministic
			// and nothing publishes on the hot workload.
			if o.hotKey >= 0 && w.name == wlRoutesHot {
				if prev, seen := crcByKey[o.hotKey]; seen && prev != o.crc {
					l.fail.add("hot pair %d answered with different bytes", o.hotKey)
				}
				crcByKey[o.hotKey] = o.crc
			}
			if o.end <= window {
				res.samples = append(res.samples, o.sample)
				res.bytes += int64(o.bytes)
				if o.shape != "" {
					res.byShape[o.shape] = append(res.byShape[o.shape], ms(o.lat))
				}
			}
		}
		if trackers[id] != nil {
			res.mixed += trackers[id].mixed
		}
	}
	l.replay(ctx, ops)

	res.attempted, res.failed, res.failures = int(l.attempted.Load()), l.fail.count, l.fail.first
	return res, nil
}

// reader is one closed-loop client: warm-up stream with full checks,
// then the measured stream keeping only status, size and CRC-32 (and,
// under live traffic, the four version numbers).
func (l *loader) reader(ctx context.Context, id int) ([]op, *versionTracker) {
	cn := newConn(l.c.base)
	defer cn.close()
	live := l.w.name == wlLiveTraffic
	var tracker *versionTracker
	if live {
		tracker = newVersionTracker(len(l.w.cities))
	}
	for i := 0; time.Now().Before(l.warmEnd()) && ctx.Err() == nil; i++ {
		r := l.w.request(phaseWarm, id, i)
		l.attempted.Add(1)
		status, body, err := cn.do(ctx, r)
		if _, err := checkResponse(r, status, body, err, live); err != nil {
			l.fail.add("warm-up client %d request %d: %v", id, i, err)
		}
	}
	var ops []op
	for i := 0; ctx.Err() == nil; i++ {
		start := time.Now()
		if !start.Before(l.end()) {
			break
		}
		r := l.w.request(phaseMeasure, id, i)
		status, body, err := cn.do(ctx, r)
		done := time.Now()
		if err != nil {
			l.fail.add("client %d request %d: %v", id, i, err)
			status = 0
		}
		ops = append(ops, op{
			sample: sample{end: done.Sub(l.warmEnd()), lat: done.Sub(start)},
			status: status,
			bytes:  len(body),
			crc:    crc32.ChecksumIEEE(body),
			hotKey: r.HotKey,
			shape:  r.Shape,
		})
		if live && err == nil && status == http.StatusOK {
			if v, ok := scanVersions(body); !ok {
				l.fail.add("client %d request %d: no weight versions in body", id, i)
			} else if err := tracker.observe(r.City, v); err != nil {
				l.fail.add("client %d request %d: %v", id, i, err)
			}
		}
	}
	l.attempted.Add(int64(len(ops)))
	return ops, tracker
}

// checkResponse is the full check of one response; a matrix response
// comes back decoded.
func checkResponse(r request, status int, body []byte, err error, live bool) (*matrixResponse, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	switch r.Kind {
	case kindRoutes:
		_, err = checkRoutes(body, live)
	case kindMatrix:
		return checkMatrix(body, r.K)
	}
	return nil, err
}

// replay re-sends an evenly spaced sample of the measured requests and
// checks the answers in full. Off live traffic a routes answer must be
// byte-identical to the one given inside the window; a repeated matrix
// body must hit the selection cache and return the same table.
func (l *loader) replay(ctx context.Context, ops [][]op) {
	cn := newConn(l.c.base)
	defer cn.close()
	live := l.w.name == wlLiveTraffic
	per := replaySamples / len(ops)
	for id := range ops {
		n := len(ops[id])
		for j := 0; j < per && j < n && ctx.Err() == nil; j++ {
			i := j * n / min(per, n)
			r := l.w.request(phaseMeasure, id, i)
			l.attempted.Add(1)
			status, body, err := cn.do(ctx, r)
			first, err := checkResponse(r, status, body, err, live)
			if err != nil {
				l.fail.add("replay client %d request %d: %v", id, i, err)
				continue
			}
			switch {
			case r.Kind == kindRoutes && !live:
				if crc := crc32.ChecksumIEEE(body); crc != ops[id][i].crc && ops[id][i].status == http.StatusOK {
					l.fail.add("replay client %d request %d: bytes differ from the in-window answer", id, i)
				}
			case r.Kind == kindMatrix:
				l.attempted.Add(1)
				status, body, err := cn.do(ctx, r)
				second, err := checkResponse(r, status, body, err, live)
				if err == nil {
					err = checkMatrixRepeat(first, second)
				}
				if err != nil {
					l.fail.add("replay client %d request %d (repeat): %v", id, i, err)
				}
			}
		}
	}
}

// awaitVersion polls probe — one /api/routes answer's four versions per
// call — every freshPoll until the given approach answers at target or
// freshTimeout passes.
func awaitVersion(probe func() ([numApproaches]uint64, error), approach int, target uint64) error {
	deadline := time.Now().Add(freshTimeout)
	for {
		v, err := probe()
		if err != nil {
			return err
		}
		if v[approach] >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("version %d not served within %s", target, freshTimeout)
		}
		time.Sleep(freshPoll)
	}
}

// writer is the live_traffic write client: one write per period, each
// followed by a poll of the city's probe pair until the write is
// visible in the answers.
func (l *loader) writer(ctx context.Context, res *loadResult) {
	cn := newConn(l.c.base)
	defer cn.close()
	n := len(l.w.cities)
	stream := l.w.writer()
	tracker := newVersionTracker(n)
	defer func() { res.mixed += tracker.mixed }() // runLoad adds the reader's after the join
	public := make([]uint64, n)                   // last store versions per city; stores start at 1
	traffic := make([]uint64, n)
	for i := range public {
		public[i], traffic[i] = 1, 1
	}
	for tick := 0; ; tick++ {
		due := l.t0.Add(time.Duration(tick) * writerPeriod)
		if !due.Before(l.end()) || ctx.Err() != nil {
			return
		}
		sleepUntil(ctx, due)
		measured := !due.Before(l.warmEnd())
		sent := time.Now()
		r := stream.tick(tick)
		ci := r.City
		l.attempted.Add(1)
		status, body, err := cn.do(ctx, r)
		wrote := time.Now()
		var wr writeResponse
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &wr)
		}
		if err != nil {
			l.fail.add("write tick %d (%s): %v", tick, r.Path, err)
			continue
		}
		// Versions are gapless: this client is the only producer, and
		// every kind of write publishes once into the traffic store.
		if r.Kind == kindBan {
			if wr.PublicVersion != public[ci]+1 {
				l.fail.add("write tick %d: public version %d after %d", tick, wr.PublicVersion, public[ci])
			}
			public[ci] = wr.PublicVersion
		}
		tv := max(wr.TrafficVersion, wr.WeightVersion) // /api/observations names it weightVersion
		if tv != traffic[ci]+1 {
			l.fail.add("write tick %d: traffic version %d after %d", tick, tv, traffic[ci])
		}
		traffic[ci] = tv

		approach, target := wr.visibleAs(r.Kind)
		var fresh time.Time
		err = awaitVersion(func() (v [numApproaches]uint64, err error) {
			l.attempted.Add(1)
			status, body, err := cn.do(ctx, probeRequest(l.w.cities, ci))
			fresh = time.Now()
			v, ok := scanVersions(body)
			if err != nil || status != http.StatusOK || !ok {
				return v, fmt.Errorf("probe: status %d, err %v", status, err)
			}
			return v, tracker.observe(ci, v)
		}, approach, target)
		if err != nil {
			l.fail.add("write tick %d: %v", tick, err)
		} else if measured {
			res.fresh = append(res.fresh, fresh.Sub(sent))
		}
		if measured {
			res.writes = append(res.writes, wrote.Sub(sent))
			res.writerLag = append(res.writerLag, sent.Sub(due))
		}
		if tick%4 == 3 {
			l.attempted.Add(1)
			if status, _, err := cn.do(ctx, metricsRequest); err != nil || status != http.StatusOK {
				l.fail.add("scrape after tick %d: status %d, err %v", tick, status, err)
			}
		}
	}
}

// cacheCounters scrapes the child's /metrics and sums the result-cache
// hit and miss counters over cities.
func (c *child) cacheCounters(ctx context.Context) (hits, misses float64, err error) {
	status, body, err := c.do(ctx, metricsRequest)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("scraping /metrics: status %d, %v", status, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var into *float64
		switch {
		case strings.HasPrefix(name, "routing_result_cache_hits_total{"):
			into = &hits
		case strings.HasPrefix(name, "routing_result_cache_misses_total{"):
			into = &misses
		default:
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		*into += v
	}
	return hits, misses, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}
