package core

import (
	"slices"
	"sync"

	"repro/internal/ch"
	"repro/internal/graph"
)

// selRecent is how many target sets one weight version's selection cache
// keeps: a repeat of any of the last selRecent distinct sets hits.
const selRecent = 8

// selEntry is one cached selection keyed by the target set it was built
// for. Entries are immutable after insertion, and the ch.Selection itself
// is safe for concurrent restricted builds, so readers use entries
// without any lock.
type selEntry struct {
	sig  []graph.NodeID // ascending distinct target ids, owned by the entry
	full bool           // sweep everything: the targets exceed the cutover
	sel  *ch.Selection  // nil when full
}

// selectionCache is the matrix selection cache behind cchTrees: a ring
// of the last selRecent inserted entries under one mutex, found by exact
// signature match; an insert overwrites the oldest slot. A table still
// holding an entry that has left the ring keeps using it until the
// garbage collector frees it. A cache instance lives and dies with one
// weight version, so no selection outlives the weights it was built on.
type selectionCache struct {
	mu   sync.Mutex
	ring [selRecent]*selEntry
	next int // the oldest slot: the next insert overwrites it
}

// find returns the entry keyed by sig, or nil. Callers hold c.mu.
func (c *selectionCache) find(sig []graph.NodeID) *selEntry {
	for _, e := range c.ring {
		if e != nil && slices.Equal(e.sig, sig) {
			return e
		}
	}
	return nil
}

// lookup returns the entry keyed by sig, or nil on a miss.
func (c *selectionCache) lookup(sig []graph.NodeID) *selEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.find(sig)
}

// insert adds e in the oldest slot and returns the canonical entry: when
// a racing table inserted the same signature first, the existing entry
// wins and e is discarded.
func (c *selectionCache) insert(e *selEntry) *selEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.find(e.sig); old != nil {
		return old
	}
	c.ring[c.next] = e
	c.next = (c.next + 1) % selRecent
	return e
}

// bytes reports the retained size of the cached selections.
func (c *selectionCache) bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, e := range c.ring {
		if e != nil && e.sel != nil {
			total += e.sel.MemoryBytes()
		}
	}
	return total
}
