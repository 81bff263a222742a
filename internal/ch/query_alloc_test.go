package ch_test

import (
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/sp"
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

// TestJointSweepZeroAlloc asserts the warm four-label kernel — two
// versions' forward and backward trees in one pass — allocates nothing,
// like a single PHAST build.
func TestJointSweepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := gridCity(20, 20)
	pre := cch.PreprocessShared(g)
	a := pre.Customize(g.BaseWeights())
	w := g.CopyWeights()
	for e := range w {
		w[e] *= 1 + float64(e%7)/10
	}
	j := ch.NewJoint(a, pre.Customize(w))
	wsA, wsB := sp.NewWorkspace(), sp.NewWorkspace()
	s, tt := graph.NodeID(g.NumNodes()/2), graph.NodeID(3)
	j.BuildTreesInto(wsA, wsB, s, tt) // warm up
	if allocs := testing.AllocsPerRun(20, func() { j.BuildTreesInto(wsA, wsB, s, tt) }); allocs > 0 {
		t.Errorf("Joint.BuildTreesInto: %v allocs/op after warm-up, want 0", allocs)
	}
}
