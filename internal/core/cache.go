package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// cacheKey identifies one cached answer: which planner, under which
// weight version, for which query. Keying by version is what makes the
// cache safe under live traffic — an answer computed under snapshot N can
// only ever be returned to a lookup that resolved version N.
type cacheKey struct {
	planner Planner
	version weights.Version
	s, t    graph.NodeID
}

// resultCache is the engine's fastest-path/result cache: a bounded map
// with FIFO eviction. Hot (version, s, t) pairs — the fastest route and
// its alternatives — are served without touching a planner. Eviction on
// publish is per store generation (evictStale), not wholesale: a
// double-buffered CH planner keeps serving — and therefore keeps hitting
// on — the previous version's entries until its background customization
// swaps, so only versions no planner can look up again are dropped.
//
// Cached route slices are shared between all readers; callers must treat
// Result.Routes as immutable (every consumer in this repository does).
type resultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cachedAnswer
	order   []cacheKey // FIFO eviction ring
	next    int
	filled  bool

	hits, misses atomic.Uint64
}

// cachedAnswer is one entry: the routes and the slot their encoded form
// is kept in, so the encoding is dropped with the routes by the same FIFO
// eviction and per-generation sweep.
type cachedAnswer struct {
	routes []path.Path
	enc    Encoded
}

// Encoded holds the encoded form of one cached answer, filled by whoever
// first needs it (the demo server keeps an approach's routes JSON here).
// Its bytes are derived from the entry's routes alone, so concurrent
// fills store identical bytes and either may win. Stored bytes must not
// be modified.
type Encoded struct{ b atomic.Pointer[[]byte] }

// Load returns the stored bytes, or nil when none are stored yet or e is
// nil.
func (e *Encoded) Load() []byte {
	if e == nil {
		return nil
	}
	if b := e.b.Load(); b != nil {
		return *b
	}
	return nil
}

// Store keeps b as the entry's encoded form.
func (e *Encoded) Store(b []byte) { e.b.Store(&b) }

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		entries: make(map[cacheKey]*cachedAnswer, capacity),
		order:   make([]cacheKey, capacity),
	}
}

func (c *resultCache) get(k cacheKey) (*cachedAnswer, bool) {
	c.mu.Lock()
	a, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return a, ok
}

func (c *resultCache) put(k cacheKey, routes []path.Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return
	}
	if _, dup := c.entries[k]; dup {
		return
	}
	if c.filled {
		delete(c.entries, c.order[c.next])
	}
	c.entries[k] = &cachedAnswer{routes: routes}
	c.order[c.next] = k
	c.next++
	if c.next == len(c.order) {
		c.next, c.filled = 0, true
	}
}

// evictStale drops, in one sweep, every entry older than its planner's
// serving-version floor — the per-generation publish eviction. Entries at
// the floor itself survive: that is the version a double-buffered
// planner's view is still serving (and will keep answering cache lookups
// with) until its background refresh completes. Planners absent from
// floors keep all their entries. Evicted keys may linger in the FIFO
// ring; put() tolerates deleting an already-gone key, so they merely age
// out.
func (c *resultCache) evictStale(floors map[Planner]weights.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if min, ok := floors[k.planner]; ok && k.version < min {
			delete(c.entries, k)
		}
	}
}
