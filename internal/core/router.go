package core

import (
	"sync/atomic"

	"repro/internal/weights"
)

// DefaultCacheSize is the result-cache capacity a Router installs on its
// engine when the engine has none: roomy enough for the hot query set of
// one demo city between publishes, small enough to be irrelevant next to
// the graph itself.
const DefaultCacheSize = 4096

// Router is the live-traffic serving layer: it owns a planner set, the
// weight stores they plan on, and the engine that answers queries. It
// subscribes to every store, so a publish
//
//  1. evicts the stale generations of the engine's versioned result
//     cache (keeping what double-buffered planners still serve), and
//  2. kicks a background refresh in every planner's provider — the CCH
//     re-customization of TreeCHAuto planners,
//
// after which each provider's view swings to the new version by an atomic
// pointer swap — old state keeps serving until its replacement is ready,
// so a query never blocks on a rebuild.
//
// Responses need no barrier here: planners built together over one store
// share its provider (NewStudyPlanners), and Engine.Alternatives pins
// one view per provider for the whole query, so a response carries
// one version per store by construction. Sync is the explicit barrier
// for callers that need the *latest* version.
type Router struct {
	engine   atomic.Pointer[Engine]
	planners []Planner
}

// NewRouter wires the serving layer together. A nil engine gets a fresh
// default-sized one; an engine whose owner never called SetCache gets a
// DefaultCacheSize cache (an explicit SetCache(0) is honoured). The
// router subscribes to the given stores — every store a planner resolves
// from should be listed, or its publishes won't trigger invalidation and
// re-customization.
func NewRouter(engine *Engine, planners []Planner, stores ...*weights.Store) *Router {
	if engine == nil {
		engine = NewEngine(0)
	}
	if !engine.cacheSet.Load() {
		engine.SetCache(DefaultCacheSize)
	}
	r := &Router{
		planners: append([]Planner(nil), planners...),
	}
	r.engine.Store(engine)
	for _, st := range stores {
		st.Subscribe(func(*weights.Snapshot) { r.onPublish() })
	}
	return r
}

// Engine returns the engine currently answering this router's queries.
func (r *Router) Engine() *Engine { return r.engine.Load() }

// SetEngine swaps the serving engine (a deployment sharing one worker
// pool across cities installs it here). The new engine inherits cache
// duty: it gets a DefaultCacheSize cache unless its owner already called
// SetCache (including SetCache(0) to run uncached).
func (r *Router) SetEngine(e *Engine) {
	if !e.cacheSet.Load() {
		e.SetCache(DefaultCacheSize)
	}
	r.engine.Store(e)
}

// SetMetrics installs the instrument bundle on the provider of every
// planner (nil uninstalls): whichever engine answers, it records query
// latency and cache traffic there, each provider records its
// customizations, and a matrix engine sharing a provider records its
// tables and selections. The bundle stays with the providers, so an
// engine shared by several cities attributes each query to the city
// whose planner ran it, and a later SetEngine keeps it. Installs race
// benignly with serving queries — a query records under the bundle it
// pinned with its views.
func (r *Router) SetMetrics(m *Metrics) {
	for _, p := range r.planners {
		prov := p.source()
		prov.metrics.Store(m)
		if prov.needTrees {
			m.bindCustomize(prov.label)
		}
	}
}

// Planners returns the planner set, in registration order.
func (r *Router) Planners() []Planner { return r.planners }

// onPublish is the store subscription hook. It must not block the
// publisher: cache eviction is one O(entries) map sweep, and planner
// refreshes only CAS a flag and spawn (at most one) rebuild goroutine.
//
// Eviction is per store generation, not a wholesale clear: each planner
// drops only the cache entries older than the version it is *currently
// serving* (read passively — never nudging a rebuild from the publish
// path). A double-buffered CH provider therefore keeps its
// previous-version entries hot until its background customization swaps.
// Entries of a superseded generation linger at most until the next
// publish and are bounded by the cache capacity.
func (r *Router) onPublish() {
	floors := make(map[Planner]weights.Version, len(r.planners))
	for _, p := range r.planners {
		floors[p] = p.source().servingVersion()
	}
	r.Engine().EvictCacheStale(floors)
	for _, p := range r.planners {
		p.source().refreshAsync()
	}
}

// Sync blocks until every planner serves its source's latest snapshot —
// the barrier behind deterministic tests and maintenance endpoints that
// must observe a completed swap.
func (r *Router) Sync() {
	for _, p := range r.planners {
		p.source().refreshSync()
	}
}

// ServingVersions reports, per planner, the weight version currently
// *installed*, read passively — it never nudges a rebuild, so it is safe
// on scrape paths that must not perturb serving (/metrics and
// /api/traffic).
func (r *Router) ServingVersions() []weights.Version {
	out := make([]weights.Version, len(r.planners))
	for i, p := range r.planners {
		out[i] = p.source().servingVersion()
	}
	return out
}

// hierarchyReporter is implemented by planners backed by a hierarchy
// provider (the choice-routing planners on TreeCHAuto).
type hierarchyReporter interface {
	HierarchyStatus() HierarchyStatus
}

// HierarchyStatuses reports, per planner, the hierarchy flavor currently
// answering and its most recent customization latency (zero-value entries
// for planners without a hierarchy backend) — the second observability
// hook behind the demo server's per-query log line.
func (r *Router) HierarchyStatuses() []HierarchyStatus {
	out := make([]HierarchyStatus, len(r.planners))
	for i, p := range r.planners {
		if hr, ok := p.(hierarchyReporter); ok {
			out[i] = hr.HierarchyStatus()
		}
	}
	return out
}
