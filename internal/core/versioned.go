package core

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// versioned is embedded by every planner in this package: the provider
// it reads its weights from, plus the methods that need nothing else.
type versioned struct{ prov *provider }

// WeightsVersion returns the version the next query would plan on. For a
// planner on a CH-backed provider mid-swap this is the version of the
// hierarchy currently serving, which may trail the source's latest until
// background re-customization completes.
func (v versioned) WeightsVersion() weights.Version { return v.prov.weightsVersion() }

func (v versioned) source() *provider { return v.prov }

// answer runs pl on the view its provider serves now — the body of every
// Alternatives in this package.
func answer(pl Planner, s, t graph.NodeID) ([]path.Path, error) {
	return pl.alternativesOn(pl.source().view(), s, t)
}

// view is one fully resolved weight version: the snapshot itself plus
// whatever per-version state the planner's tree backend needs (for
// TreeCHAuto, the packed sweep arrays of the version's customization).
// Views are immutable once installed; a query resolves exactly one view
// and uses it for everything (trees, plateau costs, admission bounds), so
// its answer is consistent under a single snapshot even while publishes
// race.
type view struct {
	snap  *weights.Snapshot
	trees TreeSource
}

// provider is the serving generation of one weight store: it resolves a
// weights.Source into views, caching the current one behind an atomic
// pointer. The Dijkstra backend rebuilds synchronously on the first
// query that sees a new version; TreeCHAuto is double-buffered: the stale
// view keeps serving while a single background goroutine customizes the
// city's preprocessing for the new weights, and the pointer swap is
// atomic. Planners built together over one store share its provider
// (NewStudyPlanners), so they serve the same version; a planner built
// alone owns one. A superseded view is freed with the last query still
// holding it.
type provider struct {
	g   *graph.Graph
	src weights.Source
	// customize, set for a TreeCHAuto provider with trees, customizes the
	// city's CCH preprocessing (resolved once, at construction) for one
	// weight vector. The result is the version's PHAST tree builder: its
	// slot-order columns over the city's shared sweep topology.
	customize func([]float64) *ch.TreeBuilder
	// pre is that preprocessing, kept for its size gauge.
	pre       *cch.Preprocessed
	needTrees bool // planners without a tree seam skip tree state
	// maxTargets is the matrix cutover handed to every version's CCH
	// source: autoFraction of the graph's nodes, fixed at construction.
	maxTargets int

	cur      atomic.Pointer[view]
	mu       sync.Mutex  // serializes rebuilds
	inflight atomic.Bool // coalesces concurrent async refreshes
	// lastCustomize is the wall time (ns) of the most recent
	// customization, the shared preprocessing excluded — the per-swap
	// latency the server logs.
	lastCustomize atomic.Int64
	// customizeFailures counts background rebuilds that panicked; each
	// left the previous view serving.
	customizeFailures atomic.Uint64
	// selStats is the matrix selection-cache observability shared across
	// weight versions (nil off TreeCHAuto).
	selStats *selectionStats
	// label names the planner that built the provider ("Plateaus" for a
	// study set's public provider, "GMaps" for Commercial's, "Matrix"
	// for a standalone matrix engine's): its customization latencies are
	// recorded under that planner label.
	label string
	// metrics is the city's instrument bundle (nil: record nothing),
	// installed by Router.SetMetrics. Every query the engine answers on
	// one of the provider's planners, every matrix table on it and every
	// customization of it is recorded here.
	metrics atomic.Pointer[Metrics]
	// joint, set by NewStudyPlanners before the planners are returned, is
	// the city's joint slot this provider shares with its sibling; nil
	// when the provider has none.
	joint *jointSlot
}

// jointSlot caches the joint sweep topology of a city's public and
// traffic views (ch.Joint), which the engine's tree groups sweep all four
// trees of an /api/routes miss over. It holds a single entry, built on
// the first miss that pairs the serving views. A provider that installs
// a new view drops the entry, and an entry is stored only while both of
// its builders serve, so the slot never keeps a superseded builder
// reachable.
type jointSlot struct {
	// provs are the public and the traffic provider, the order the joint
	// takes their builders in. The traffic provider's status counts the
	// joint's bytes.
	provs [2]*provider
	// mu orders stores against drops; loads are lock-free.
	mu  sync.Mutex
	cur atomic.Pointer[ch.Joint]
}

// shareJoint links the public and traffic providers of a study set to
// one joint slot when both customize the same preprocessing into basic
// views over its shared topology.
func shareJoint(public, traffic *provider, opts Options) {
	if public.customize == nil || traffic.customize == nil || public.pre != traffic.pre || opts.Hierarchy != HierarchyCCH {
		return
	}
	js := &jointSlot{provs: [2]*provider{public, traffic}}
	public.joint, traffic.joint = js, js
}

// get returns the joint of the builders a (public) and b (traffic): the
// cached one when it was packed from them, otherwise a fresh one, which
// replaces the cached entry if a and b still serve.
func (js *jointSlot) get(a, b *ch.TreeBuilder) *ch.Joint {
	if j := js.cur.Load(); j != nil {
		if ja, jb := j.Builders(); ja == a && jb == b {
			return j
		}
	}
	j := ch.NewJoint(a, b)
	js.mu.Lock()
	if js.provs[0].servingBuilder() == a && js.provs[1].servingBuilder() == b {
		js.cur.Store(j)
	}
	js.mu.Unlock()
	return j
}

// drop empties the slot; a provider calls it after installing a view.
func (js *jointSlot) drop() {
	js.mu.Lock()
	js.cur.Store(nil)
	js.mu.Unlock()
}

// bytes reports what the cached joint retains of its own, 0 when the
// slot is empty.
func (js *jointSlot) bytes() int {
	if j := js.cur.Load(); j != nil {
		return j.MemoryBytes()
	}
	return 0
}

// servingBuilder returns the tree builder of the installed view, nil off
// TreeCHAuto.
func (p *provider) servingBuilder() *ch.TreeBuilder {
	return sweepBuilder(p.cur.Load().trees)
}

// newProvider builds the resolver for the planner labelled label and
// synchronously installs the view of the source's current snapshot, so a
// TreeCHAuto planner leaves its constructor with a ready hierarchy. The
// backend, hierarchy and order knobs come from opts; a nil src pins the
// graph's own base weights (note the Commercial planner passes its
// private metric here, not opts.Weights).
func newProvider(g *graph.Graph, src weights.Source, needTrees bool, opts Options, label string) *provider {
	if src == nil {
		src = weights.Pin(g.BaseWeights())
	}
	p := &provider{g: g, src: src, needTrees: needTrees, label: label}
	if needTrees && opts.TreeBackend == TreeCHAuto {
		// The preprocessing is captured here, once: looking it up in the
		// shared memo per version could find it evicted and contract the
		// city again.
		pre := cch.PreprocessSharedWith(g, cch.OrderConfig{Kind: opts.Order})
		cfg := cch.Config{Perfect: opts.Hierarchy == HierarchyCCHPerfect}
		p.pre = pre
		p.customize = func(w []float64) *ch.TreeBuilder {
			return pre.CustomizeWith(w, cfg)
		}
		p.maxTargets = int(autoFraction * float64(g.NumNodes()))
		p.selStats = &selectionStats{}
	}
	p.refreshSync()
	return p
}

// view resolves the view a query should run on. When the source has moved
// past the installed view, the Dijkstra backend rebuilds inline (its
// per-version state is the snapshot's weight slice); TreeCHAuto kicks a
// background customization and keeps serving the installed view — the
// double-buffer half of the live-swap design.
func (p *provider) view() *view {
	cur := p.cur.Load()
	snap := p.src.Snapshot()
	if cur.snap.Version() >= snap.Version() {
		return cur
	}
	if p.customize == nil {
		return p.rebuildTo(snap)
	}
	p.refreshAsync()
	return cur
}

// weightsVersion reports the serving view's version without forcing a
// rebuild (but nudging one along if the source has moved).
func (p *provider) weightsVersion() weights.Version {
	return p.view().snap.Version()
}

// servingVersion reports the installed view's version without touching
// the source at all — the passive read behind per-generation cache
// eviction and the serving-version gauges.
func (p *provider) servingVersion() weights.Version {
	return p.cur.Load().snap.Version()
}

// hierarchyStatus reports the serving hierarchy flavor and the latency of
// the most recent (re)customization; zero when the backend runs no
// hierarchy.
func (p *provider) hierarchyStatus() HierarchyStatus {
	if p.customize == nil {
		return HierarchyStatus{}
	}
	tr := p.cur.Load().trees.(*cchTrees)
	viewBytes := tr.tb.MemoryBytes()
	if js := p.joint; js != nil && js.provs[1] == p {
		viewBytes += js.bytes()
	}
	return HierarchyStatus{
		Kind:              cch.Kind,
		LastCustomize:     time.Duration(p.lastCustomize.Load()),
		CustomizeFailures: p.customizeFailures.Load(),
		SelectionHits:     p.selStats.selHits.Load(),
		SelectionMisses:   p.selStats.selMisses.Load(),
		SelectionBytes:    tr.cache.bytes(),
		ViewBytes:         viewBytes,
		PreprocessedBytes: p.pre.MemoryBytes(),
	}
}

// rebuildTo synchronously installs a view for at least the given
// snapshot's version. Concurrent callers coalesce: whoever takes the lock
// first builds, the rest observe the result.
func (p *provider) rebuildTo(snap *weights.Snapshot) *view {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.cur.Load()
	if cur != nil && cur.snap.Version() >= snap.Version() {
		return cur
	}
	v := p.buildView(snap)
	p.cur.Store(v)
	if p.joint != nil {
		p.joint.drop()
	}
	return v
}

// refreshAsync starts (at most one) background rebuild toward the
// source's latest snapshot. Queries keep resolving the old view until the
// atomic swap; a publish arriving mid-rebuild is picked up by the next
// query's view() call, so the provider converges without a scheduler.
//
// A rebuild that panics (a failed customization) is counted and logged,
// and the previous view keeps serving: nothing reaches the goroutine to
// report it to, and unrecovered it would take the process down. The next
// query that sees the newer snapshot starts the retry.
func (p *provider) refreshAsync() {
	if !p.inflight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.inflight.Store(false)
		snap := p.src.Snapshot()
		defer func() {
			if r := recover(); r != nil {
				p.customizeFailures.Add(1)
				log.Printf("core: rebuild to weights v%d failed, still serving v%d: %v",
					snap.Version(), p.servingVersion(), r)
			}
		}()
		p.rebuildTo(snap)
	}()
}

// refreshSync blocks until the provider serves the source's latest
// snapshot — the Router's barrier for tests and deterministic swaps.
func (p *provider) refreshSync() {
	p.rebuildTo(p.src.Snapshot())
}

// buildView constructs the per-version state. For TreeCHAuto that is one
// customization of the city's preprocessing — the always-exact triangle
// relaxation on the frozen contraction, never a re-contraction.
func (p *provider) buildView(snap *weights.Snapshot) *view {
	v := &view{snap: snap}
	if !p.needTrees {
		return v
	}
	w := snap.Weights()
	if p.customize == nil {
		v.trees = dijkstraTrees{g: p.g, weights: w}
		return v
	}
	start := time.Now()
	// A fresh source per version: its matrix selection cache must never
	// survive a weight swap (the selections index the old tree builder's
	// arcs).
	v.trees = newCCHTrees(p.g, p.customize(w), p.maxTargets, p.selStats)
	elapsed := time.Since(start)
	p.lastCustomize.Store(int64(elapsed))
	p.metrics.Load().observeCustomize(p.label, elapsed)
	return v
}
