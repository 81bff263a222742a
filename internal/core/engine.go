package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Engine is the concurrent serving-layer entry point: it answers one
// query per Alternatives call, fanning the planners out over a bounded
// worker pool — the execution model a multi-user deployment needs (§III's
// demo system answers four approaches per submit, and the evaluation
// harness replays hundreds of queries, one call each).
//
// The engine itself holds no per-query state; each in-flight call draws a
// warm sp.Workspace from the shared pool, so a saturated engine runs
// steady-state query processing without allocating search arrays. Every
// Planner is safe for concurrent use.
//
// The only state that spans planners is request-scoped: within one call,
// the planners that plan on trees — all four study planners, Commercial
// on the traffic store and Plateaus, Dissimilarity and Penalty on the
// public one — share one tree group: each of the query's trees is built
// once per pinned view, and released when the call returns (see
// Alternatives).
//
// With SetCache the engine additionally memoizes answers keyed by
// (planner, weight version, s, t): under live traffic the same hot
// queries recur between publishes, and a versioned key guarantees a hit
// can never serve routes from a superseded snapshot. The serving layer
// (core.Router) evicts superseded generations on every publish.
type Engine struct {
	sem   chan struct{}
	cache atomic.Pointer[resultCache]
	// cacheSet records that SetCache was called explicitly, so a Router
	// only installs its default cache on engines whose owner never chose
	// (an explicit SetCache(0) stays disabled).
	cacheSet atomic.Bool
}

// NewEngine returns an engine running at most workers concurrent planner
// calls; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{sem: make(chan struct{}, workers)}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// SetCache equips the engine with a result cache holding up to capacity
// answers (capacity <= 0 removes the cache).
func (e *Engine) SetCache(capacity int) {
	e.cacheSet.Store(true)
	if capacity <= 0 {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(newResultCache(capacity))
}

// EvictCacheStale drops, in one sweep, the cached answers computed under
// versions older than each planner's floor (its currently *serving*
// version), keeping the generation a double-buffered planner still
// serves alive across a publish. The Router calls it once per publish.
func (e *Engine) EvictCacheStale(floors map[Planner]weights.Version) {
	if len(floors) == 0 {
		return
	}
	if c := e.cache.Load(); c != nil {
		c.evictStale(floors)
	}
}

// CacheStats reports cumulative cache hits and misses (zeros without a
// cache).
func (e *Engine) CacheStats() (hits, misses uint64) {
	if c := e.cache.Load(); c != nil {
		return c.hits.Load(), c.misses.Load()
	}
	return 0, 0
}

// Result is one planner's answer to a query, in planner order.
type Result struct {
	Routes []path.Path
	// Version is the weight snapshot the answer was computed under: the
	// version of the view the call pinned for the planner's provider.
	// Treat Routes as immutable: cached results are shared between
	// callers.
	Version weights.Version
	// Encoded is the slot for the encoded form of Routes on the cache
	// entry that answered the planner; nil unless it hit the cache. It is
	// evicted with the entry.
	Encoded *Encoded
	Err     error
}

// pin is the view one planner of a call runs on and the instrument bundle
// of the view's provider.
type pin struct {
	v       *view
	metrics *Metrics
}

// Alternatives answers one query with every planner — the fan-out behind
// each "Submit" press of the demo system — and returns the results in
// planner order. Per-planner failures are reported in Result.Err, never as
// a panic across goroutines.
//
// The call pins one view per distinct provider when it starts, and every
// cache lookup, planner call and cache store runs on that view: planners
// sharing a provider answer under one snapshot version, however publishes
// race it. Cache hits are answered inline, so a request that plans
// nothing starts no goroutine.
//
// The misses fan out through Run. Those on views with trees — in the study
// set all four planners, across the public and the traffic store — share
// one groupTrees, which builds each of the query's trees once per view and
// is released when the call returns. Every tree of the group is
// bit-identical to the view's own build, so every route is what the
// planner would have computed alone, ties included; a half whose build
// panics fails only the planner that built it.
func (e *Engine) Alternatives(planners []Planner, s, t graph.NodeID) []Result {
	results := make([]Result, len(planners))
	pins := make([]pin, len(planners))
	for i, pl := range planners {
		prov := pl.source()
		for j := range i {
			if planners[j].source() == prov {
				pins[i] = pins[j]
				break
			}
		}
		if pins[i].v == nil {
			pins[i] = pin{v: prov.view(), metrics: prov.metrics.Load()}
		}
		results[i].Version = pins[i].v.snap.Version()
	}

	cache := e.cache.Load()
	var misses []int
	var views []*view
	for i, pl := range planners {
		if cache != nil && answerHit(cache, pl, pins[i], s, t, &results[i]) {
			continue
		}
		misses = append(misses, i)
		if v := pins[i].v; v.trees != nil && !slices.Contains(views, v) {
			views = append(views, v)
		}
	}
	if len(misses) == 0 {
		return results
	}
	var gt *groupTrees
	if len(views) > 0 {
		gt = newGroupTrees(s, t, views)
		defer gt.release()
	}
	// runJob recovers each planner's panic into its result, so Run has
	// none to report.
	_ = e.Run(len(misses), func(k int) {
		i := misses[k]
		runJob(cache, planners[i], pins[i], gt.viewOf(pins[i].v), s, t, &results[i])
	})
	return results
}

// answerHit answers pl from the cache when the query's answer at the
// pinned version is there, recording the lookup and, on a hit, the query.
func answerHit(cache *resultCache, pl Planner, p pin, s, t graph.NodeID, res *Result) bool {
	start := time.Now()
	a, ok := cache.get(cacheKey{planner: pl, version: res.Version, s: s, t: t})
	p.metrics.observeCache(ok)
	if !ok {
		return false
	}
	res.Routes, res.Encoded = a.routes, &a.enc
	p.metrics.observeQuery(pl.Name(), time.Since(start), nil)
	return true
}

// groupTrees is the build-once tree state of one group: for each distinct
// view of the group, a forward tree rooted at s and a backward tree rooted
// at t, in a workspace of the view's own. The work is two halves — every
// view's s-rooted forward tree, and every view's t-rooted backward tree —
// and a job that needs trees claims each unclaimed half, builds it, then
// waits for the other, so two workers build the halves in parallel. Within
// a half, two views whose tree builders share a sweep topology (a city's
// public and traffic views on ch-auto) are swept in one twin pass; every
// other view (the Dijkstra backend, a cch-perfect customization's private
// topology) is swept on its own.
type groupTrees struct {
	s, t    graph.NodeID
	members []groupMember
	halves  [2]treeHalf // forward (s-rooted), backward (t-rooted)
}

// treeHalf is one claimable half of a group's build.
type treeHalf struct {
	claimed atomic.Bool
	done    sync.WaitGroup
	// failed is written before done is released: the build panicked.
	failed bool
}

// groupMember is one view of a group and its trees. It is the TreeSource
// of view, the group's copy of the pinned view.
type groupMember struct {
	g      *groupTrees
	pinned *view
	view   view
	src    TreeSource
	ws     *sp.Workspace
	trees  [2]*sp.Tree // forward, backward; written by the halves
}

// newGroupTrees readies a group over the distinct views for the query
// (s, t): one member and one workspace per view.
func newGroupTrees(s, t graph.NodeID, views []*view) *groupTrees {
	gt := &groupTrees{s: s, t: t, members: make([]groupMember, len(views))}
	for i, v := range views {
		m := &gt.members[i]
		m.g, m.pinned, m.view, m.src = gt, v, *v, v.trees
		m.view.trees = m
		m.ws = sp.GetWorkspace()
	}
	for h := range gt.halves {
		gt.halves[h].done.Add(1)
	}
	return gt
}

// viewOf returns the view a planner pinned to v plans on: the group's copy
// of v, whose trees are the group's, or v itself when the group (possibly
// nil) has no member for it.
func (gt *groupTrees) viewOf(v *view) *view {
	if gt != nil {
		for i := range gt.members {
			if m := &gt.members[i]; m.pinned == v {
				return &m.view
			}
		}
	}
	return v
}

// build claims and builds every unclaimed half, then waits for the rest.
// It reports whether every half was built; after a failed one the caller
// builds its own trees.
func (gt *groupTrees) build() bool {
	for h := range gt.halves {
		if gt.halves[h].claimed.CompareAndSwap(false, true) {
			gt.buildHalf(h)
		}
	}
	ok := true
	for h := range gt.halves {
		gt.halves[h].done.Wait()
		ok = ok && !gt.halves[h].failed
	}
	return ok
}

// buildHalf builds half h's tree of every member, pairing the members
// that share a sweep topology into twin passes. A panic marks the half
// failed and propagates to the claiming job.
func (gt *groupTrees) buildHalf(h int) {
	half := &gt.halves[h]
	failed := true
	defer func() {
		half.failed = failed
		half.done.Done()
	}()
	root, dir := gt.s, sp.Forward
	if h == 1 {
		root, dir = gt.t, sp.Backward
	}
	ms := gt.members
	for i := range ms {
		if ms[i].trees[h] != nil {
			continue
		}
		if j := twinPartner(ms, i, h); j >= 0 {
			ms[i].trees[h], ms[j].trees[h] = ch.BuildTwinTreesInto(
				ms[i].ws, sweepBuilder(ms[i].src), ms[j].ws, sweepBuilder(ms[j].src), root, dir)
			continue
		}
		ms[i].trees[h] = ms[i].src.BuildTree(ms[i].ws, root, dir)
	}
	failed = false
}

// twinPartner returns the first member after i whose half-h tree is not
// built yet and whose tree builder shares member i's sweep topology, or
// -1.
func twinPartner(ms []groupMember, i, h int) int {
	a := sweepBuilder(ms[i].src)
	if a == nil {
		return -1
	}
	for j := i + 1; j < len(ms); j++ {
		if b := sweepBuilder(ms[j].src); b != nil && ms[j].trees[h] == nil && b.Topology() == a.Topology() {
			return j
		}
	}
	return -1
}

// sweepBuilder returns the PHAST builder behind a CCH source, nil for any
// other source.
func sweepBuilder(src TreeSource) *ch.TreeBuilder {
	if r, ok := src.(*cchTrees); ok {
		return r.tb
	}
	return nil
}

// BuildTrees implements TreeSource for the group's jobs, which all only
// read what it returns (Penalty just the backward tree). After a half
// failed — or for any other pair — the caller builds into its own
// workspace, as it would without the group: the unbuilt pair must not
// read as unreachable.
func (m *groupMember) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	if s == m.g.s && t == m.g.t && m.g.build() {
		fwd = m.trees[0]
		return fwd, m.trees[1], fwd.Reached(t)
	}
	return m.src.BuildTrees(ws, s, t)
}

// BuildTree implements TreeSource by the member's own source.
func (m *groupMember) BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	return m.src.BuildTree(ws, root, dir)
}

// release returns the members' workspaces to the pool once no job can
// read the trees any more.
func (gt *groupTrees) release() {
	for i := range gt.members {
		if m := &gt.members[i]; m.ws != nil {
			m.ws.Release()
			m.ws = nil
		}
	}
}

// Run executes fn(0) .. fn(n-1) under the engine's worker bound — the
// one fan-out behind a query's planner calls (Alternatives) and batched
// tree sweeps (core.MatrixEngine). With a single worker or a single item
// the calls run inline on the caller's goroutine (still acquiring the
// semaphore per call, so the bound holds against concurrent callers) — no
// goroutine handoff, which is what lets a warm matrix sweep run
// allocation-free on a one-worker engine. A panic in fn is recovered and
// returned as an error (first one wins) rather than crashing a worker
// goroutine; the remaining calls still run.
func (e *Engine) Run(n int, fn func(int)) error {
	if n <= 0 {
		return nil
	}
	if n == 1 || cap(e.sem) == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			e.sem <- struct{}{}
			err := protectCall(fn, i)
			<-e.sem
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		e.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-e.sem
				wg.Done()
			}()
			if err := protectCall(fn, i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// protectCall runs fn(i), converting a panic into an error.
func protectCall(fn func(int), i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: engine task %d panicked: %v", i, r)
		}
	}()
	fn(i)
	return nil
}

// acquire/release expose the worker semaphore to same-package sweep
// drivers that loop inline instead of handing fn to Run (avoiding the
// closure allocation on their zero-alloc paths).
func (e *Engine) acquire() { e.sem <- struct{}{} }
func (e *Engine) release() { <-e.sem }

// runJob executes one planner call on v and stores the answer in the
// cache under the pinned version its lookup used. A panic becomes the
// planner's error: a worker goroutine must never take the whole process
// down (the HTTP handler's own recover cannot reach it). The call's
// latency and outcome are recorded in its pin's instrument bundle, here
// and on the cache-hit path, because the engine is the one place every
// query passes exactly once.
func runJob(cache *resultCache, pl Planner, p pin, v *view, s, t graph.NodeID, res *Result) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Routes = nil
			res.Err = fmt.Errorf("core: planner %s panicked on %d->%d: %v", pl.Name(), s, t, r)
		}
		p.metrics.observeQuery(pl.Name(), time.Since(start), res.Err)
	}()
	res.Routes, res.Err = pl.alternativesOn(v, s, t)
	if cache != nil && res.Err == nil {
		cache.put(cacheKey{planner: pl, version: res.Version, s: s, t: t}, res.Routes)
	}
}
