// Package weights implements the versioned weight store behind live-traffic
// serving: immutable, numbered weight Snapshots published through a Store
// with atomic latest-pointer semantics.
//
// The serving stack's whole point is that edge weights change — the Fig. 4
// phenomenon of the paper is route rankings flipping between the public OSM
// metric and the provider's congestion-laden private metric. Planners
// therefore no longer freeze a weight copy at construction; they hold a
// Source and resolve the current Snapshot per query. Producers (the traffic
// simulation, road-closure handling) publish whole new vectors; consumers
// (planners, the engine's result cache, CH re-customization) key everything
// they derive by the snapshot's Version, so a publish invalidates exactly
// the state derived from superseded versions.
//
// Ban semantics: an edge banned on the Store reads +Inf in every snapshot —
// the current one (Ban republishes immediately) and every future Publish
// (the mask is applied before the pointer swings). +Inf weights are
// impassable walls for every search in this repository, so a closure
// survives any number of traffic re-publishes.
package weights

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Version numbers the snapshots of one Store, starting at 1 and strictly
// increasing with each publish. Version 0 means "unversioned" (no snapshot
// resolved).
type Version uint64

// Pinned is the version of snapshots created by Pin: state that never
// changes, such as a planner's construction-time weight vector.
const Pinned Version = 1

// Snapshot is one immutable, numbered weight vector: w[e] is the weight of
// edge e in seconds, +Inf for banned (impassable) edges. Snapshots are
// never modified after creation and are safe to share across goroutines.
type Snapshot struct {
	version Version
	w       []float64
}

// NewSnapshot wraps w as a snapshot with the given version. It takes
// ownership: the caller must not modify w afterwards.
func NewSnapshot(version Version, w []float64) *Snapshot {
	return &Snapshot{version: version, w: w}
}

// Pin wraps w as a fixed standalone snapshot (version Pinned). A pinned
// snapshot is its own Source, so a planner given one plans on frozen
// weights forever — the pre-store construction-time-copy behaviour.
func Pin(w []float64) *Snapshot { return NewSnapshot(Pinned, w) }

// Version returns the snapshot's number within its store.
func (s *Snapshot) Version() Version { return s.version }

// Weights returns the weight vector, indexed by EdgeID. The returned slice
// aliases snapshot storage and must not be modified.
func (s *Snapshot) Weights() []float64 { return s.w }

// Len returns the number of edge weights.
func (s *Snapshot) Len() int { return len(s.w) }

// Snapshot implements Source: a snapshot always resolves to itself.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// Source resolves the weight snapshot a query should plan on. A *Store
// resolves to its latest published snapshot; a *Snapshot resolves to
// itself (a pin). Implementations must be safe for concurrent use.
type Source interface {
	Snapshot() *Snapshot
}

// Store is the versioned weight store: it owns the numbered snapshot
// sequence of one metric (say, a city's private traffic weights) and hands
// the latest out through an atomic pointer, so readers never block
// publishers and vice versa.
type Store struct {
	latest atomic.Pointer[Snapshot]

	mu     sync.Mutex // serializes publishers and subscriber delivery
	next   Version
	banned map[graph.EdgeID]struct{}
	subs   []func(*Snapshot)
}

// NewStore creates a store and publishes a copy of base as version 1.
func NewStore(base []float64) *Store {
	st := &Store{next: 1, banned: make(map[graph.EdgeID]struct{})}
	st.Publish(base)
	return st
}

// Latest returns the most recently published snapshot. It never returns
// nil and never blocks, whatever publishers are doing.
func (st *Store) Latest() *Snapshot { return st.latest.Load() }

// Snapshot implements Source.
func (st *Store) Snapshot() *Snapshot { return st.Latest() }

// Version returns the latest published version.
func (st *Store) Version() Version { return st.Latest().Version() }

// Publish copies w, applies the store's ban mask, and installs the result
// as the next-numbered snapshot. Subscribers run synchronously, in
// subscription order, before Publish returns; they see the new snapshot as
// Latest. The caller keeps ownership of w.
//
// Producer model: any number of producers may publish into one store —
// the publisher mutex serializes them, so versions are always gapless and
// strictly monotone, and subscribers observe every snapshot in version
// order. What the mutex cannot arbitrate is *semantic* ownership: two
// producers publishing whole vectors (a traffic sequence and a telemetry
// ingestor, say) overwrite each other last-writer-wins. A producer that
// derives its next vector from the current snapshot must use Update, or a
// concurrent publish can land between its read and its write.
func (st *Store) Publish(w []float64) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.publishLocked(w)
}

// Update runs fn under the publisher lock and publishes its result — the
// atomic read-modify-write a producer needs when its next vector depends
// on the store's current state (or when its internal state must stay in
// lock-step with the version sequence: the returned snapshot is
// guaranteed to carry exactly the weights fn produced, with no other
// publish interleaved). fn receives the current snapshot (never nil) and
// returns the next weight vector; returning nil skips the publish and
// returns the current snapshot unchanged. fn must not call back into the
// store.
func (st *Store) Update(fn func(prev *Snapshot) []float64) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := fn(st.latest.Load())
	if w == nil {
		return st.latest.Load()
	}
	return st.publishLocked(w)
}

func (st *Store) publishLocked(w []float64) *Snapshot {
	if cur := st.latest.Load(); cur != nil && len(w) != cur.Len() {
		panic(fmt.Sprintf("weights: publishing %d weights onto a %d-edge store", len(w), cur.Len()))
	}
	cp := make([]float64, len(w))
	copy(cp, w)
	inf := math.Inf(1)
	for e := range st.banned {
		cp[e] = inf
	}
	snap := NewSnapshot(st.next, cp)
	st.next++
	st.latest.Store(snap)
	for _, fn := range st.subs {
		fn(snap)
	}
	return snap
}

// Ban marks edges impassable in this store's metric and republishes the
// current weights with the mask applied, so the closure takes effect
// immediately and survives every future Publish.
func (st *Store) Ban(edges ...graph.EdgeID) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range edges {
		st.banned[e] = struct{}{}
	}
	return st.publishLocked(st.latest.Load().Weights())
}

// Banned returns the currently banned edges, in no particular order.
func (st *Store) Banned() []graph.EdgeID {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]graph.EdgeID, 0, len(st.banned))
	for e := range st.banned {
		out = append(out, e)
	}
	return out
}

// Subscribe registers fn to run on every subsequent publish, synchronously
// under the store's publisher lock — keep it quick and never call back
// into Publish/Ban from it (kick a goroutine for heavy work, as the
// serving layer does for CH re-customization).
func (st *Store) Subscribe(fn func(*Snapshot)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.subs = append(st.subs, fn)
}
