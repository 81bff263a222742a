package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sp"
)

// smallRestrictedCity builds one small city on the ch-auto backend for
// matrix-engine wiring tests.
func smallRestrictedCity(t testing.TB) *City {
	t.Helper()
	p := citygen.Copenhagen()
	p.Rows, p.Cols = 16, 16
	p.Motorway.Present = false
	c, err := NewCityOpts(p, 5, core.Options{TreeBackend: core.TreeCHAuto})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCityMatrixEngine checks the NewCityOpts wiring: the city carries a
// matrix engine that shares the Plateaus planner's provider (same weight
// version) and produces tables matching Dijkstra under the public store.
func TestCityMatrixEngine(t *testing.T) {
	c := smallRestrictedCity(t)
	if c.Matrix == nil {
		t.Fatal("NewCityOpts left Matrix nil")
	}
	if pv, mv := c.Planners[1].(*core.Plateaus).WeightsVersion(), c.Matrix.WeightsVersion(); pv != mv {
		t.Fatalf("matrix engine version %d, Plateaus %d (provider not shared?)", mv, pv)
	}
	sources := []graph.NodeID{0, 5, 11}
	targets := []graph.NodeID{20, 31, 44, 57}
	tab, err := c.Matrix.Matrix(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	ws := sp.GetWorkspace()
	defer ws.Release()
	w := c.PublicStore.Latest().Weights()
	for i, s := range sources {
		tree := sp.BuildTreeInto(ws, c.Graph, w, s, sp.Forward)
		for j, tgt := range targets {
			got, want := tab.At(i, j), tree.Dist[tgt]
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				t.Fatalf("cell %d,%d reachability mismatch: %v vs %v", i, j, got, want)
			}
			if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("cell %d,%d = %v, Dijkstra %v", i, j, got, want)
			}
		}
	}

	// SetEngine keeps the shared provider (version still agrees).
	c.SetEngine(core.NewEngine(2))
	if pv, mv := c.Planners[1].(*core.Plateaus).WeightsVersion(), c.Matrix.WeightsVersion(); pv != mv {
		t.Fatalf("after SetEngine: matrix version %d, Plateaus %d", mv, pv)
	}
}

// TestRunMatrixAblation runs the smallest sweep end to end and checks the
// rows and formatting carry the measurements.
func TestRunMatrixAblation(t *testing.T) {
	c := smallRestrictedCity(t)
	rows, err := c.RunMatrixAblation([]int{2, 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.MatrixTime <= 0 || r.PairwiseTime <= 0 {
			t.Fatalf("k=%d: non-positive timings %v / %v", r.K, r.MatrixTime, r.PairwiseTime)
		}
		if r.Speedup <= 0 {
			t.Fatalf("k=%d: speedup %v", r.K, r.Speedup)
		}
	}
	out := FormatMatrixAblation("Copenhagen", rows, c.Matrix.HierarchyStatus())
	for _, want := range []string{"MATRIX ABLATION", "speedup", "selection cache:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted ablation missing %q:\n%s", want, out)
		}
	}
}
