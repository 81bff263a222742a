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

// TestJointSweepMatchesSingleSweeps pins the four-label kernel on the
// joint topology to four single sweeps on the three study cities: for
// the base metric paired with the traffic metric, and with a snapshot
// closing a tenth of the edges, from random (s, t), every node's distance
// bits and parent edge of both versions' forward trees from s and
// backward trees into t equal each builder's own BuildTreeInto. It also
// pins the joint's pruning rule: a pair is dropped only when it is inert
// under both metrics, and every pair live under either is kept.
func TestJointSweepMatchesSingleSweeps(t *testing.T) {
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
		base := pre.Customize(g.BaseWeights())
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
			other := pre.Customize(o.w)
			if other.Topology() != base.Topology() {
				t.Fatalf("%s/%s: two basic customizations of one preprocessing pack different topologies", prof.Name, o.name)
			}
			j := ch.NewJoint(base, other)
			checkJointPruning(t, prof.Name+"/"+o.name, j, base, other)
			for r := 0; r < roots; r++ {
				s := graph.NodeID(rng.Intn(g.NumNodes()))
				tt := graph.NodeID(rng.Intn(g.NumNodes()))
				fa, ba, fb, bb := j.BuildTreesInto(wsA, wsB, s, tt)
				for _, c := range []struct {
					name string
					got  *sp.Tree
					tb   *ch.TreeBuilder
					root graph.NodeID
					dir  sp.Direction
				}{
					{"base forward", fa, base, s, sp.Forward},
					{"base backward", ba, base, tt, sp.Backward},
					{o.name + " forward", fb, other, s, sp.Forward},
					{o.name + " backward", bb, other, tt, sp.Backward},
				} {
					want := c.tb.BuildTreeInto(wsRef, c.root, c.dir)
					label := fmt.Sprintf("%s/%s/(%d, %d)/%s label", prof.Name, o.name, s, tt, c.name)
					if c.got.Root != c.root || c.got.Dir != c.dir {
						t.Fatalf("%s: tree header root %d dir %d", label, c.got.Root, c.got.Dir)
					}
					if v := sameTree(c.got, want); v >= 0 {
						t.Fatalf("%s: node %d: joint (%v, %d), single (%v, %d)", label, v, c.got.Dist[v], c.got.Parent[v], want.Dist[v], want.Parent[v])
					}
				}
			}
		}
	}
}

// checkJointPruning checks that j keeps exactly the pairs live under a's
// or b's metric, and that the pruning has something to drop.
func checkJointPruning(t *testing.T, label string, j *ch.Joint, a, b *ch.TreeBuilder) {
	t.Helper()
	inertA, inertB := ch.InertMask(a), ch.InertMask(b)
	kept := make([]bool, len(inertA))
	for _, q := range ch.JointPairs(j) {
		kept[q] = true
	}
	dropped := 0
	for q := range kept {
		if both := inertA[q] && inertB[q]; kept[q] == both {
			t.Fatalf("%s: pair %d inert under base %v and under the other %v, but kept %v", label, q, inertA[q], inertB[q], kept[q])
		}
		if !kept[q] {
			dropped++
		}
	}
	if dropped == 0 || j.NumPairs() != len(kept)-dropped {
		t.Fatalf("%s: joint keeps %d of %d pairs, %d dropped", label, j.NumPairs(), len(kept), dropped)
	}
	t.Logf("%s: joint keeps %d of %d pairs", label, j.NumPairs(), len(kept))
}

// TestJointRejectsMixedTopologies pins that a perfect customization,
// which packs a private topology, cannot share a joint with a basic one,
// nor with another perfect one.
func TestJointRejectsMixedTopologies(t *testing.T) {
	g := gridCity(8, 8)
	pre := cch.PreprocessShared(g)
	basic := pre.Customize(g.BaseWeights())
	perfect := pre.CustomizeWith(g.BaseWeights(), cch.Config{Perfect: true})
	perfect2 := pre.CustomizeWith(g.BaseWeights(), cch.Config{Perfect: true})
	if perfect.Topology() == basic.Topology() {
		t.Fatal("a perfect customization shares the basic topology")
	}
	for _, c := range []struct {
		name string
		a, b *ch.TreeBuilder
	}{{"basic+perfect", basic, perfect}, {"perfect+basic", perfect, basic}, {"perfect+perfect", perfect, perfect2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: a joint of builders of different topologies did not panic", c.name)
				}
			}()
			ch.NewJoint(c.a, c.b)
		}()
	}
}
