package sp

import (
	"math"
	"sync"

	"repro/internal/graph"
)

// SearchState is the per-direction scratch state of one Dijkstra-style
// search: tentative distances, parent pointers and a priority queue. The
// arrays are never re-initialized between searches; instead every slot
// carries a generation stamp and Begin bumps the current generation, so
// clearing a search costs O(1) rather than an O(n) +Inf fill. A slot is
// meaningful only when its stamp belongs to the current generation:
//
//	stamp[v] <  cur   — v untouched this search (dist reads as +Inf)
//	stamp[v] == cur   — v reached (dist/parent valid)
//	stamp[v] == cur+1 — v settled (dist final)
//
// SearchState is exported so packages running their own search loops over
// different arc structures (contraction hierarchies) can reuse the exact
// same machinery; parent pointers are graph.EdgeID-typed but hold whatever
// arc identifier the search stores.
type SearchState struct {
	Heap   Heap
	dist   []float64
	parent []graph.EdgeID
	stamp  []uint32
	cur    uint32
}

// Begin readies the state for a new search over n nodes, invalidating all
// previous distances in O(1) (amortized: the stamp array is re-zeroed only
// on uint32 wraparound, once per ~2 billion searches).
func (s *SearchState) Begin(n int) {
	if len(s.stamp) < n {
		s.dist = append(s.dist, make([]float64, n-len(s.dist))...)
		s.parent = append(s.parent, make([]graph.EdgeID, n-len(s.parent))...)
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	if s.cur >= math.MaxUint32-2 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 0
	}
	s.cur += 2
	s.Heap.Reset()
}

// DistOf returns v's tentative distance, +Inf if untouched this search.
func (s *SearchState) DistOf(v graph.NodeID) float64 {
	if s.stamp[v] >= s.cur {
		return s.dist[v]
	}
	return math.Inf(1)
}

// Touched reports whether v has been reached this search.
func (s *SearchState) Touched(v graph.NodeID) bool { return s.stamp[v] >= s.cur }

// Label returns v's distance and whether v has been reached this search,
// in a single stamp read — heap-free walk loops ask both questions for
// every path node, and the fused form halves their stamp traffic.
func (s *SearchState) Label(v graph.NodeID) (float64, bool) {
	if s.stamp[v] >= s.cur {
		return s.dist[v], true
	}
	return math.Inf(1), false
}

// Improve relaxes v to distance d via parent iff d beats v's current
// label. It fuses the Touched/DistOf/Update triple of heap-free relax
// loops into one stamp read. improved reports that d was written (so d is
// now v's label — meet-candidate peeks are valid against it); fresh that
// v was reached for the first time this search (callers count fresh
// labels to track their live frontier).
func (s *SearchState) Improve(v graph.NodeID, d float64, parent graph.EdgeID) (improved, fresh bool) {
	if s.stamp[v] >= s.cur {
		if d < s.dist[v] {
			s.dist[v] = d
			s.parent[v] = parent
			return true, false
		}
		return false, false
	}
	s.stamp[v] = s.cur
	s.dist[v] = d
	s.parent[v] = parent
	return true, true
}

// Settled reports whether v's distance is final this search.
func (s *SearchState) Settled(v graph.NodeID) bool { return s.stamp[v] == s.cur+1 }

// Settle marks v's distance as final.
func (s *SearchState) Settle(v graph.NodeID) { s.stamp[v] = s.cur + 1 }

// Update records a relaxation: v is reached at distance d via parent.
func (s *SearchState) Update(v graph.NodeID, d float64, parent graph.EdgeID) {
	s.dist[v] = d
	s.parent[v] = parent
	if s.stamp[v] < s.cur {
		s.stamp[v] = s.cur
	}
}

// ParentOf returns the parent recorded by the last Update of v. It is only
// meaningful while Touched(v) holds.
func (s *SearchState) ParentOf(v graph.NodeID) graph.EdgeID { return s.parent[v] }

// Finalize materializes the search result over the first n slots so the
// dist/parent arrays can be read directly (by Tree consumers) without
// stamp checks: untouched slots become +Inf / -1. The arrays then hold
// exactly the bytes a fresh full-initialization search would produce. It
// is exported for external tree builders (ch.TreeBuilder) that run their
// own search loops on the state and then post-process the dense arrays.
func (s *SearchState) Finalize(n int) ([]float64, []graph.EdgeID) {
	dist, parent, stamp := s.dist[:n], s.parent[:n], s.stamp[:n]
	inf := math.Inf(1)
	for v := range stamp {
		if stamp[v] < s.cur {
			dist[v] = inf
			parent[v] = -1
		}
	}
	return dist, parent
}

// DenseArrays starts a fresh generation and returns the state's backing
// dist/parent arrays sized for n nodes, for external tree builders
// (ch.TreeBuilder) that overwrite every slot rather than search
// incrementally. The caller must fill all n entries; the stamp protocol
// is bypassed, which is safe because Tree consumers read the returned
// slices directly.
func (s *SearchState) DenseArrays(n int) ([]float64, []graph.EdgeID) {
	s.Begin(n)
	return s.dist[:n], s.parent[:n]
}

// Workspace bundles the reusable scratch memory of the search functions in
// this package: a forward and a backward SearchState plus tree headers and
// a path buffer. The ...Into search variants write their results into the
// workspace and return views of it, so a warmed-up workspace answers
// queries without allocating.
//
// Ownership rules: results returned by an ...Into call (Trees, edge
// slices) alias workspace memory and stay valid until the next search that
// uses the same slot — forward/unidirectional searches use one slot,
// Backward tree builds the other, bidirectional searches both. Callers
// that retain results across searches must copy them first.
//
// A Workspace is not safe for concurrent use; use one per goroutine,
// typically via GetWorkspace/Release which pool warm workspaces.
type Workspace struct {
	// F and B are the forward (or unidirectional) and backward search
	// states. They are exported for packages that drive their own search
	// loops on the shared machinery.
	F, B SearchState

	treeF, treeB Tree
	path         []graph.EdgeID
}

// NewWorkspace returns an empty workspace. Its arrays grow to fit the
// graphs it is used on.
func NewWorkspace() *Workspace { return &Workspace{} }

var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace hands out a pooled workspace, warm if one is available.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// Release returns ws to the pool. The caller must not use ws, nor any
// Tree or edge slice obtained from its ...Into calls, afterwards.
func (ws *Workspace) Release() { workspacePool.Put(ws) }

// pathBuf returns the workspace's reusable edge buffer, emptied.
func (ws *Workspace) pathBuf() []graph.EdgeID {
	if ws.path == nil {
		ws.path = make([]graph.EdgeID, 0, 64)
	}
	return ws.path[:0]
}

// PathBuf hands out the workspace's reusable edge buffer, emptied. It is
// the scratch space behind Tree.PathInto-style route assembly: callers
// append into it and return the grown storage via KeepPathBuf so the next
// use starts with the accumulated capacity. The buffer is shared with the
// ...Into path searches, so it is free only between searches.
func (ws *Workspace) PathBuf() []graph.EdgeID { return ws.pathBuf() }

// KeepPathBuf stows buf (typically a grown PathBuf) back into the
// workspace for reuse.
func (ws *Workspace) KeepPathBuf(buf []graph.EdgeID) { ws.path = buf }

// treeSlot returns the reusable Tree header and SearchState for a build
// direction: Forward trees live in the F slot, Backward trees in B.
func (ws *Workspace) treeSlot(dir Direction) (*Tree, *SearchState) {
	if dir == Forward {
		return &ws.treeF, &ws.F
	}
	return &ws.treeB, &ws.B
}

// TreeSlot exposes treeSlot for external tree builders (ch.TreeBuilder)
// whose results should be drop-in workspace trees: drive the SearchState,
// fill the header, and the same aliasing rules as BuildTreeInto apply.
func (ws *Workspace) TreeSlot(dir Direction) (*Tree, *SearchState) { return ws.treeSlot(dir) }
