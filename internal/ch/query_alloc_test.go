package ch_test

import (
	"testing"

	"repro/internal/graph"
)

// TestDistNearZeroAlloc asserts the workspace-backed CH query allocates
// (almost) nothing per call once the pooled workspace is warm. The old
// map-and-container/heap implementation spent ~450 allocations per query.
// "Almost" because sync.Pool may be drained by a GC between runs, forcing
// a one-off workspace rebuild.
func TestDistNearZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	h := build(g, g.CopyWeights())
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	h.Dist(s, d) // warm the pooled workspace
	if allocs := testing.AllocsPerRun(50, func() { h.Dist(s, d) }); allocs >= 1 {
		t.Errorf("Dist: %v allocs/op after warm-up, want ~0", allocs)
	}
}
