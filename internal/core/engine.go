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
// jobs that plan on trees for the same (s, t) — all four study planners,
// Commercial on the traffic store and Plateaus, Dissimilarity and Penalty
// on the public one — share one tree group: each of the query's trees is
// built once per pinned view, and released when the last of the jobs
// finishes (see AlternativesBatch).
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
// Jobs with the same (s, t) on views with trees — in the study set all
// four, across the public and the traffic store — also share one tree
// group: per distinct pinned view, a forward tree rooted at s and a
// backward tree rooted at t, each built once into a workspace of the
// group's. The work is two halves, every view's forward tree and every
// view's backward tree. The first job of the group to miss the result
// cache installs the group's state; a job that needs trees claims each
// half nobody has claimed, builds it, and then waits for the other, so
// on two workers the halves run in parallel. Within a half, two views
// whose tree builders share one sweep topology (a city's public and
// traffic views on ch-auto) are swept in one twin pass
// (ch.BuildTwinTreesInto); any other view — the Dijkstra backend, a
// cch-perfect customization with its private topology — is swept on its
// own. The planners only read the trees (Penalty its backward tree, as a
// search potential), and every tree is bit-identical to the view's own
// build, so every route is what the job would have computed alone, ties
// included. A half whose build panics fails only the job that built it;
// the others then build their own trees. The last job of the group to
// finish releases its workspaces, so a batch of many queries holds a
// group's trees only while some job of its query runs, and a group whose
// jobs all hit the cache builds nothing.
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
// batch that plan on trees share its (s, t), the group whose trees they
// share.
type batchSlot struct {
	v       *view
	metrics *Metrics
	// group points at the state held in the slot of the group's first job
	// (own); nil when no other job shares the query.
	group *treeGroup
	// next is the index+1 of the group's next job (0 ends the list), so a
	// group finds its views without a per-batch allocation.
	next int32
	own  treeGroup
}

// treeGroup is the request-scoped tree state of the jobs sharing one
// (s, t) across every pinned view of a batch.
type treeGroup struct {
	pending atomic.Int32 // jobs of the group still running
	trees   atomic.Pointer[groupTrees]
	// slots is the batch, and first/last the ends of the group's job list
	// through it.
	slots       []batchSlot
	first, last int32
}

// queryKey identifies a group: a query.
type queryKey struct{ s, t graph.NodeID }

// pinSlots resolves the view each job runs on — one per distinct provider,
// shared by every job on it — and groups the jobs on views with trees by
// (s, t), across providers. Both maps stay on the stack for a
// request-sized batch.
func pinSlots(jobs []Job) []batchSlot {
	slots := make([]batchSlot, len(jobs))
	pinned := make(map[*provider]*view, 2)
	leads := make(map[queryKey]int32, 8)
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
		key := queryKey{jobs[i].S, jobs[i].T}
		lead, ok := leads[key]
		if !ok {
			leads[key] = int32(i)
			continue
		}
		g := &slots[lead].own
		if slots[lead].group == nil {
			slots[lead].group = g
			g.slots, g.first, g.last = slots, lead, lead
			g.pending.Store(1)
		}
		g.pending.Add(1)
		slots[g.last].next = int32(i) + 1
		g.last = int32(i)
		slots[i].group = g
	}
	return slots
}

// planView returns the view the slot's job plans on: the pinned view, or
// in a group the group's copy of it whose trees are the group's, installed
// by the first job of the group to get here.
func (sl *batchSlot) planView(s, t graph.NodeID) *view {
	g := sl.group
	if g == nil {
		return sl.v
	}
	gt := g.trees.Load()
	if gt == nil {
		gt = g.newTrees(s, t)
		if !g.trees.CompareAndSwap(nil, gt) {
			gt.release()
			gt = g.trees.Load()
		}
	}
	for i := range gt.members {
		if m := &gt.members[i]; m.pinned == sl.v {
			return &m.view
		}
	}
	return sl.v
}

// finish records that the slot's job is done; the group's last job
// releases the group's trees.
func (sl *batchSlot) finish() {
	if g := sl.group; g != nil && g.pending.Add(-1) == 0 {
		if gt := g.trees.Load(); gt != nil {
			gt.release()
		}
	}
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

// newTrees collects the group's distinct views and readies their
// workspaces.
func (g *treeGroup) newTrees(s, t graph.NodeID) *groupTrees {
	gt := &groupTrees{s: s, t: t}
	var views []*view
	for i := g.first; ; i = g.slots[i].next - 1 {
		if v := g.slots[i].v; !slices.Contains(views, v) {
			views = append(views, v)
		}
		if g.slots[i].next == 0 {
			break
		}
	}
	gt.members = make([]groupMember, len(views))
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
