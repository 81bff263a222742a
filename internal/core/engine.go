package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// Engine is the concurrent serving-layer entry point: it fans a batch of
// Alternatives calls out over a bounded worker pool, the execution model a
// multi-user deployment needs (§III's demo system answers four approaches
// per submit, and the evaluation harness replays hundreds of queries).
//
// The engine itself holds no per-query state; each in-flight call draws a
// warm sp.Workspace from the shared pool, so a saturated engine runs
// steady-state query processing without allocating search arrays. Every
// Planner is safe for concurrent use.
//
// The only state that spans jobs is request-scoped: within one batch, the
// jobs that run on the same pinned view for the same (s, t) — the study
// set's Plateaus, Dissimilarity and Penalty on the public provider —
// share one forward/backward tree pair, built once by whichever needs it
// first and released when the last of them finishes (see
// AlternativesBatch).
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
// cache) — the serving metric the demo server logs per query.
func (e *Engine) CacheStats() (hits, misses uint64) {
	if c := e.cache.Load(); c != nil {
		return c.hits.Load(), c.misses.Load()
	}
	return 0, 0
}

// Job is one Alternatives call of a batch.
type Job struct {
	Planner Planner
	S, T    graph.NodeID
}

// Result is the outcome of one Job, in batch order.
type Result struct {
	Routes []path.Path
	// Version is the weight snapshot the answer was computed under: the
	// version of the view the batch pinned for the planner's provider.
	// Treat Routes as immutable: cached results are shared between
	// callers.
	Version weights.Version
	// Encoded is the slot for the encoded form of Routes on the cache
	// entry that answered the job; nil unless the job hit the cache. It
	// is evicted with the entry.
	Encoded *Encoded
	Err     error
}

// AlternativesBatch answers all jobs concurrently (bounded by the worker
// limit) and returns results in job order. It blocks until the whole
// batch is done; per-job failures are reported in Result.Err, never as a
// panic across goroutines.
//
// The batch pins one view per distinct provider when it starts, and every
// job, cache lookup and cache store runs on that view: planners sharing a
// provider answer the whole batch under one snapshot version, however
// publishes race it.
//
// Jobs on one pinned view with the same (s, t) — in the study set
// Plateaus, Dissimilarity and Penalty — also share one tree pair. The
// first of them to miss the result cache installs a batch-local copy of
// the view whose TreeSource builds the pair once, into a workspace of its
// own; a job asking for the trees while they are being built waits for
// them. Plateaus, Dissimilarity and Penalty only read the trees (Penalty
// its backward tree, as a search potential), and they are the output of
// one deterministic call on the same inputs, so every route is what the
// job would have computed alone, ties included. A build that panics
// fails only its own job; the others then build their own trees. The
// last job of the group to finish releases the pair, so a batch of many
// queries holds a pair only while some job of its query runs, and a group
// whose jobs all hit the cache never builds one.
func (e *Engine) AlternativesBatch(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	e.runBatch(jobs, pinSlots(jobs), results)
	return results
}

// runBatch answers jobs[i] into results[i] on slots[i].
func (e *Engine) runBatch(jobs []Job, slots []batchSlot, results []Result) {
	if len(jobs) == 1 {
		// A singleton batch runs inline — no goroutine handoff on the
		// latency-critical single-query path — but still under the
		// semaphore so the worker bound holds across concurrent callers.
		e.sem <- struct{}{}
		e.runJob(&jobs[0], &slots[0], &results[0])
		<-e.sem
		return
	}
	var wg sync.WaitGroup
	for i := range jobs {
		e.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				slots[i].finish()
				<-e.sem
				wg.Done()
			}()
			e.runJob(&jobs[i], &slots[i], &results[i])
		}(i)
	}
	wg.Wait()
}

// batchSlot is one job's place in a batch: the view it is pinned to, the
// instrument bundle of the view's provider and, when other jobs of the
// batch share that view and its (s, t), the group whose tree pair they
// share.
type batchSlot struct {
	v       *view
	metrics *Metrics
	// group points at the state held in the slot of the group's first job
	// (own); nil when no other job shares the view and the pair.
	group *pairGroup
	own   pairGroup
}

// pairGroup is the request-scoped tree pair of the jobs sharing one
// (view, s, t).
type pairGroup struct {
	pending atomic.Int32 // jobs of the group still running
	trees   atomic.Pointer[sharedTrees]
}

// pairKey identifies a group: a pinned view and a query.
type pairKey struct {
	v    *view
	s, t graph.NodeID
}

// pinSlots resolves the view each job runs on — one per distinct provider,
// shared by every job on it — and groups the jobs that share a view with
// trees and an (s, t). Both maps stay on the stack for a request-sized
// batch.
func pinSlots(jobs []Job) []batchSlot {
	slots := make([]batchSlot, len(jobs))
	pinned := make(map[*provider]*view, 2)
	leads := make(map[pairKey]int, 8)
	for i := range jobs {
		prov := jobs[i].Planner.source()
		v, ok := pinned[prov]
		if !ok {
			v = prov.view()
			pinned[prov] = v
		}
		slots[i].v = v
		slots[i].metrics = prov.metrics.Load()
		if v.trees == nil {
			continue
		}
		key := pairKey{v, jobs[i].S, jobs[i].T}
		lead, ok := leads[key]
		if !ok {
			leads[key] = i
			continue
		}
		g := &slots[lead].own
		if slots[lead].group == nil {
			slots[lead].group = g
			g.pending.Store(1)
		}
		g.pending.Add(1)
		slots[i].group = g
	}
	return slots
}

// planView returns the view the slot's job plans on: the pinned view, or
// in a group the group's copy whose trees build once, installed by the
// first job of the group to get here.
func (sl *batchSlot) planView(s, t graph.NodeID) *view {
	g := sl.group
	if g == nil {
		return sl.v
	}
	st := g.trees.Load()
	if st == nil {
		st = newSharedTrees(sl.v, s, t)
		if !g.trees.CompareAndSwap(nil, st) {
			st = g.trees.Load()
		}
	}
	return &st.view
}

// finish records that the slot's job is done; the group's last job
// releases the shared pair.
func (sl *batchSlot) finish() {
	if g := sl.group; g != nil && g.pending.Add(-1) == 0 {
		if st := g.trees.Load(); st != nil {
			st.release()
		}
	}
}

// sharedTrees is the build-once TreeSource of one group: the first
// BuildTrees call for the group's pair builds it with the wrapped source
// into a workspace the handle owns, and every call returns those trees,
// waiting for the build if it is still running. view is the group's copy
// of the pinned view, whose trees is the handle itself.
type sharedTrees struct {
	view view
	src  TreeSource
	s, t graph.NodeID
	once sync.Once
	// Written by the build; read once once.Do has returned.
	ws       *sp.Workspace
	fwd, bwd *sp.Tree
	ok       bool
	built    bool
}

func newSharedTrees(v *view, s, t graph.NodeID) *sharedTrees {
	st := &sharedTrees{view: *v, src: v.trees, s: s, t: t}
	st.view.trees = st
	return st
}

// BuildTrees implements TreeSource for the group's Plateaus,
// Dissimilarity and Penalty jobs, which all only read what it returns
// (Penalty just the backward tree). After a build that panicked — or for
// any other pair — the caller builds into its own workspace, as it would
// without the handle: the unbuilt pair must not read as unreachable.
func (st *sharedTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	if s == st.s && t == st.t {
		st.once.Do(st.build)
		if st.built {
			return st.fwd, st.bwd, st.ok
		}
	}
	return st.src.BuildTrees(ws, s, t)
}

func (st *sharedTrees) build() {
	st.ws = sp.GetWorkspace()
	st.fwd, st.bwd, st.ok = st.src.BuildTrees(st.ws, st.s, st.t)
	st.built = true
}

// release returns the pair's workspace to the pool once no job can read
// the trees any more.
func (st *sharedTrees) release() {
	if st.ws != nil {
		st.ws.Release()
		st.ws = nil
	}
}

// Run executes fn(0) .. fn(n-1) under the engine's worker bound — the
// generic fan-out behind batched tree sweeps (core.MatrixEngine). With a
// single worker or a single item the calls run inline on the caller's
// goroutine (still acquiring the semaphore per call, so the bound holds
// against concurrent callers) — no goroutine handoff, which is what lets
// a warm matrix sweep run allocation-free on a one-worker engine. A panic
// in fn is recovered and returned as an error (first one wins) rather
// than crashing a worker goroutine; the remaining calls still run.
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

// acquire/release expose the worker semaphore to same-package batch
// drivers that loop inline instead of handing fn to Run (avoiding the
// closure allocation on their zero-alloc paths).
func (e *Engine) acquire() { e.sem <- struct{}{} }
func (e *Engine) release() { <-e.sem }

// runJob executes one planner call, recording its latency and outcome
// when the slot carries an instrument bundle. Queries are recorded here
// because the engine is the one place every query passes exactly once.
// Timing wraps doJob from the outside so a recovered panic is still
// observed with its error counted.
func (e *Engine) runJob(job *Job, slot *batchSlot, res *Result) {
	m := slot.metrics
	if m == nil {
		e.doJob(job, slot, res)
		return
	}
	start := time.Now()
	e.doJob(job, slot, res)
	m.observeQuery(job.Planner.Name(), time.Since(start), res.Err)
}

// doJob executes one planner call on its slot's pinned view, converting a
// panic into the job's error: a worker goroutine must never take the
// whole process down (the HTTP handler's own recover cannot reach it).
// The answer is looked up and stored under one key, whose version is the
// pinned view's.
func (e *Engine) doJob(job *Job, slot *batchSlot, res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Routes = nil
			res.Err = fmt.Errorf("core: planner %s panicked on %d->%d: %v", job.Planner.Name(), job.S, job.T, r)
		}
	}()
	res.Version = slot.v.snap.Version()
	key := cacheKey{planner: job.Planner, version: res.Version, s: job.S, t: job.T}
	cache := e.cache.Load()
	if cache != nil {
		if a, ok := cache.get(key); ok {
			slot.metrics.observeCache(true)
			res.Routes, res.Encoded = a.routes, &a.enc
			return
		}
		slot.metrics.observeCache(false)
	}
	res.Routes, res.Err = job.Planner.alternativesOn(slot.planView(job.S, job.T), job.S, job.T)
	if cache != nil && res.Err == nil {
		cache.put(key, res.Routes)
	}
}

// Alternatives answers one query with every planner concurrently — the
// fan-out behind each "Submit" press of the demo system, where the four
// approaches' answers are independent.
func (e *Engine) Alternatives(planners []Planner, s, t graph.NodeID) []Result {
	jobs := make([]Job, len(planners))
	for i, pl := range planners {
		jobs[i] = Job{Planner: pl, S: s, T: t}
	}
	return e.AlternativesBatch(jobs)
}
