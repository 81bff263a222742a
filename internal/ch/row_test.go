package ch_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/traffic"
)

// rowTargets draws a k-target table column set for root: random nodes
// with a duplicate, the root itself when withRoot, and the given
// unreachable node when it is valid.
func rowTargets(rng *rand.Rand, n, k int, root graph.NodeID, withRoot bool, unreachable graph.NodeID) []graph.NodeID {
	targets := make([]graph.NodeID, 0, k+3)
	for len(targets) < k {
		v := graph.NodeID(rng.Intn(n))
		if v != root {
			targets = append(targets, v)
		}
	}
	targets = append(targets, targets[rng.Intn(len(targets))])
	if withRoot {
		targets = append(targets, root)
	}
	if unreachable != graph.InvalidNode {
		targets = append(targets, unreachable)
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	return targets
}

// firstUnreachable returns a node the full forward tree from root does not
// reach, or graph.InvalidNode.
func firstUnreachable(tree *sp.Tree) graph.NodeID {
	for v, d := range tree.Dist {
		if math.IsInf(d, 1) {
			return graph.NodeID(v)
		}
	}
	return graph.InvalidNode
}

// TestDistancesIntoMatchesRestrictedTrees pins the matrix row kernel to
// BuildTreeRestrictedInto on the three study cities (seed 2022, flow
// order) under the base, traffic and 10 %-closure metrics: every cell of
// every row is bit-identical to the restricted tree's distance at that
// target. Target sets carry a duplicate, the root inside or outside, and
// an unreachable node wherever the metric has one (the closure metric
// must). Rows alternate between two selections of different target sets
// from different roots, which pins the kernel's reset: a position left
// finite by one row would leak into the next. Warm rows allocate nothing.
func TestDistancesIntoMatchesRestrictedTrees(t *testing.T) {
	rows := 24
	if testing.Short() {
		rows = 8
	}
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		pre := cch.PreprocessWith(g, cch.OrderConfig{Kind: cch.OrderFlow})
		metrics := []struct {
			name string
			w    []float64
		}{
			{"base", g.BaseWeights()},
			{"traffic", traffic.Apply(g, traffic.DefaultModel(2022))},
			{"closures", closeEdges(g.BaseWeights(), 2022)},
		}
		rng := rand.New(rand.NewSource(2022))
		ws := sp.NewWorkspace()
		for _, m := range metrics {
			tb := pre.Customize(m.w).NewTreeBuilder()
			label := prof.Name + "/" + m.name
			// Two selections, each built around a root whose full tree
			// supplies an unreachable target when there is one.
			var sels [2]*ch.Selection
			var targets [2][]graph.NodeID
			var roots [2]graph.NodeID
			unreached := 0
			for s := range sels {
				roots[s] = graph.NodeID(rng.Intn(n))
				u := firstUnreachable(tb.BuildTreeInto(ws, roots[s], sp.Forward))
				if u != graph.InvalidNode {
					unreached++
				}
				targets[s] = rowTargets(rng, n, 4+rng.Intn(60), roots[s], s == 0, u)
				sels[s] = tb.Select(targets[s], nil)
			}
			if m.name == "closures" && unreached == 0 {
				t.Fatalf("%s: no target set holds an unreachable node", label)
			}
			row := make([]float64, 0, 128)
			for r := 0; r < rows; r++ {
				s := r % 2
				root := roots[s]
				if r >= 2 {
					// Later rows come from other roots, inside or outside
					// the target set.
					root = graph.NodeID(rng.Intn(n))
					if r%3 == 0 {
						root = targets[s][rng.Intn(len(targets[s]))]
					}
				}
				row = row[:len(targets[s])]
				tb.DistancesInto(row, root, targets[s], sels[s])
				want := tb.BuildTreeRestrictedInto(ws, root, sp.Forward, sels[s])
				for j, v := range targets[s] {
					if math.Float64bits(row[j]) != math.Float64bits(want.Dist[v]) {
						t.Fatalf("%s: row %d root %d target %d (%d): kernel %v, restricted tree %v",
							label, r, root, j, v, row[j], want.Dist[v])
					}
				}
			}
			if raceEnabled {
				continue
			}
			warm := func() {
				for s := range sels {
					tb.DistancesInto(row[:len(targets[s])], roots[s], targets[s], sels[s])
				}
			}
			warm()
			if allocs := testing.AllocsPerRun(10, warm); allocs > 0 {
				t.Errorf("%s: %v allocs per warm row pair, want 0", label, allocs)
			}
		}
	}
}

// TestDistancesIntoStaleSelectionPanics pins the row kernel's builder
// guard, shared with the restricted tree build.
func TestDistancesIntoStaleSelectionPanics(t *testing.T) {
	g := gridCity(6, 6)
	w := g.CopyWeights()
	tb1 := build(g, w).NewTreeBuilder()
	tb2 := build(g, w).NewTreeBuilder()
	targets := []graph.NodeID{0, 1, 2}
	sel := tb1.Select(targets, nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stale") {
			t.Fatalf("row over a stale selection: recovered %v, want the stale-selection panic", r)
		}
	}()
	tb2.DistancesInto(make([]float64, len(targets)), 0, targets, sel)
}
