package ch_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cch"
	"repro/internal/ch"
	"repro/internal/citygen"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/traffic"
)

// closeEdges returns base with a seeded tenth of its edges closed (+Inf).
func closeEdges(base []float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := append([]float64(nil), base...)
	for e := range w {
		if rng.Float64() < 0.1 {
			w[e] = math.Inf(1)
		}
	}
	return w
}

// sameTree reports the first node at which got and want differ in
// distance bits or parent edge, or -1.
func sameTree(got, want *sp.Tree) graph.NodeID {
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
			return graph.NodeID(v)
		}
	}
	return -1
}

// TestTwinSweepMatchesSingleSweeps pins the twin kernel to two single
// sweeps on the three study cities: for the base metric paired with the
// traffic metric, and with a snapshot closing a tenth of the edges, in
// both directions, every node's distance bits and parent edge equal each
// builder's own BuildTreeInto.
func TestTwinSweepMatchesSingleSweeps(t *testing.T) {
	roots := 8
	if testing.Short() {
		roots = 3
	}
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		pre := cch.PreprocessWith(g, cch.OrderConfig{Kind: cch.OrderFlow})
		base := pre.Customize(g.BaseWeights()).NewTreeBuilder()
		others := []struct {
			name string
			w    []float64
		}{
			{"traffic", traffic.Apply(g, traffic.DefaultModel(2022))},
			{"closures", closeEdges(g.BaseWeights(), 2022)},
		}
		rng := rand.New(rand.NewSource(2022))
		wsA, wsB, wsRef := sp.NewWorkspace(), sp.NewWorkspace(), sp.NewWorkspace()
		for _, o := range others {
			other := pre.Customize(o.w).NewTreeBuilder()
			if other.Topology() != base.Topology() {
				t.Fatalf("%s/%s: two basic customizations of one preprocessing pack different topologies", prof.Name, o.name)
			}
			for r := 0; r < roots; r++ {
				root := graph.NodeID(rng.Intn(g.NumNodes()))
				for _, dir := range []sp.Direction{sp.Forward, sp.Backward} {
					ta, tb := ch.BuildTwinTreesInto(wsA, base, wsB, other, root, dir)
					for _, c := range []struct {
						name string
						got  *sp.Tree
						tb   *ch.TreeBuilder
					}{{"base", ta, base}, {o.name, tb, other}} {
						want := c.tb.BuildTreeInto(wsRef, root, dir)
						label := fmt.Sprintf("%s/%s/root %d/dir %d/%s label", prof.Name, o.name, root, dir, c.name)
						if c.got.Root != root || c.got.Dir != dir {
							t.Fatalf("%s: tree header root %d dir %d", label, c.got.Root, c.got.Dir)
						}
						if v := sameTree(c.got, want); v >= 0 {
							t.Fatalf("%s: node %d: twin (%v, %d), single (%v, %d)", label, v, c.got.Dist[v], c.got.Parent[v], want.Dist[v], want.Parent[v])
						}
					}
				}
			}
		}
	}
}

// TestTwinSweepRejectsMixedTopologies pins that a perfect customization,
// which packs a private topology, cannot be twinned with a basic one.
func TestTwinSweepRejectsMixedTopologies(t *testing.T) {
	g := gridCity(8, 8)
	pre := cch.PreprocessShared(g)
	basic := pre.Customize(g.BaseWeights()).NewTreeBuilder()
	perfect := pre.CustomizeWith(g.BaseWeights(), cch.Config{Perfect: true}).NewTreeBuilder()
	if perfect.Topology() == basic.Topology() {
		t.Fatal("a perfect customization shares the basic topology")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("twinning a basic and a perfect builder did not panic")
		}
	}()
	ch.BuildTwinTreesInto(sp.NewWorkspace(), basic, sp.NewWorkspace(), perfect, 0, sp.Forward)
}
