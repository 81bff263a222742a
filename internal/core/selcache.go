package core

import (
	"slices"
	"sync"

	"repro/internal/ch"
	"repro/internal/graph"
)

// selectionCacheBytes is the total byte budget of one CCH source's matrix
// selection cache. A city-scale selection retains tens to hundreds of
// kilobytes, so the budget holds on the order of a hundred warm target
// sets.
const selectionCacheBytes = 32 << 20

// selCacheShards is the shard count of the selection cache; must be a
// power of two (the shard is picked by masking the signature hash).
const selCacheShards = 8

// selEntryOverhead approximates the fixed per-entry bookkeeping bytes
// charged against the budget on top of the selection's own arrays.
const selEntryOverhead = 96

// selEntry is one cached selection keyed by the target set it was built
// for. Entries are immutable after insertion except for the
// clock reference bit, which is only touched under the owning shard's
// mutex; the ch.Selection itself is safe for concurrent restricted
// builds, so readers use entries without any lock.
type selEntry struct {
	sig   []graph.NodeID // ascending distinct target ids, owned by the entry
	hash  uint64
	full  bool          // sweep everything: the targets exceed the cutover
	sel   *ch.Selection // nil when full
	bytes int
	ref   bool // clock reference bit (shard-mutex guarded)
}

// selShard is one mutex-guarded slice of entries with its own byte
// accounting and clock hand.
type selShard struct {
	mu      sync.Mutex
	entries []*selEntry
	bytes   int
	hand    int
}

// selectionCache is the size-bounded, sharded multi-entry selection cache
// behind cchTrees: entries are keyed by their sorted, distinct target
// ids, found by exact signature match or by a covering probe (any entry
// whose targets contain the probe's serves it exactly — selections built
// on supersets stay exact on the subset), and evicted clock-wise under a
// per-shard byte budget. A cache instance lives and dies with one weight
// version, so no selection outlives the weights it was built on.
type selectionCache struct {
	perShard int // byte budget per shard; 0 degenerates to one entry per shard
	stats    *selectionStats
	shards   [selCacheShards]selShard
}

func newSelectionCache(totalBytes int, stats *selectionStats) *selectionCache {
	return &selectionCache{perShard: totalBytes / selCacheShards, stats: stats}
}

// sigHash is FNV-1a over the signature's target ids.
func sigHash(sig []graph.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range sig {
		v := uint32(t)
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// sigSuperset reports whether sup contains every target of sub; both
// must be sorted ascending.
func sigSuperset(sup, sub []graph.NodeID) bool {
	i := 0
	for _, t := range sub {
		for i < len(sup) && sup[i] < t {
			i++
		}
		if i >= len(sup) || sup[i] != t {
			return false
		}
		i++
	}
	return true
}

// lookup returns a usable entry for the signature, or nil on a miss: the
// exact entry in the signature's home shard first, then — across all
// shards — any non-full entry whose targets include the probe's.
// Full entries match only exactly (a spread table's everything-marker
// must not hijack clustered tables into full sweeps).
func (c *selectionCache) lookup(sig []graph.NodeID, hash uint64) *selEntry {
	home := &c.shards[hash&(selCacheShards-1)]
	home.mu.Lock()
	for _, e := range home.entries {
		if e.hash == hash && slices.Equal(e.sig, sig) {
			e.ref = true
			home.mu.Unlock()
			return e
		}
	}
	home.mu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !e.full && len(e.sig) >= len(sig) && sigSuperset(e.sig, sig) {
				e.ref = true
				sh.mu.Unlock()
				return e
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// insert adds e to its home shard and returns the canonical entry: when a
// racing table inserted the same signature first, the existing entry wins
// and e is discarded. The newcomer is never evicted by its own insertion;
// older entries are clock-evicted until the shard fits its budget (or
// only the newcomer remains).
func (c *selectionCache) insert(e *selEntry) *selEntry {
	sh := &c.shards[e.hash&(selCacheShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, old := range sh.entries {
		if old.hash == e.hash && slices.Equal(old.sig, e.sig) {
			old.ref = true
			return old
		}
	}
	e.ref = true
	sh.entries = append(sh.entries, e)
	sh.bytes += e.bytes
	for len(sh.entries) > 1 && sh.bytes > c.perShard {
		if sh.hand >= len(sh.entries) {
			sh.hand = 0
		}
		victim := sh.entries[sh.hand]
		if victim == e {
			sh.hand++
			continue
		}
		if victim.ref {
			victim.ref = false
			sh.hand++
			continue
		}
		sh.bytes -= victim.bytes
		sh.entries = append(sh.entries[:sh.hand], sh.entries[sh.hand+1:]...)
		c.stats.selEvictions.Add(1)
	}
	return e
}

// entryCount reports how many entries the cache currently holds (test and
// diagnostics hook).
func (c *selectionCache) entryCount() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
