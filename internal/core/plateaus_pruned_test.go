package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
)

// The §II-B claim under test: pruned elliptical trees "still yield the
// same choice routes" as full trees, because every route within the upper
// bound lies inside the ellipse.

func TestPrunedPlateausMatchesFullTreePlanner(t *testing.T) {
	g := testCity(t)
	full := NewPlateaus(g, Options{})
	pruned := NewPrunedPlateaus(g, Options{})
	rng := rand.New(rand.NewSource(21))
	for q := 0; q < 20; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == dst {
			continue
		}
		a, err1 := full.Alternatives(s, dst)
		b, err2 := pruned.Alternatives(s, dst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d (%d->%d): error mismatch %v vs %v", q, s, dst, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if len(a) != len(b) {
			t.Fatalf("query %d (%d->%d): %d vs %d routes", q, s, dst, len(a), len(b))
		}
		for i := range a {
			if !path.Equal(a[i], b[i]) {
				t.Fatalf("query %d route %d differs between full and pruned trees", q, i)
			}
		}
	}
}

func TestPrunedPlateausExploresFewerNodes(t *testing.T) {
	g := testCity(t)
	trees := newPrunedTrees(g, g.BaseWeights(), DefaultUpperBound)
	ws := sp.GetWorkspace()
	defer ws.Release()
	// A short corner-to-adjacent query: the ellipse is small.
	fwd, bwd, ok := trees.BuildTrees(ws, 0, 2)
	if !ok {
		t.Fatal("pruned trees missed the target")
	}
	if n := sp.CountReached(fwd); n >= g.NumNodes() {
		t.Errorf("forward pruned tree reached all %d nodes; pruning ineffective", n)
	}
	if n := sp.CountReached(bwd); n >= g.NumNodes() {
		t.Errorf("backward pruned tree reached all %d nodes; pruning ineffective", n)
	}
}

func TestPrunedPlateausContract(t *testing.T) {
	g := testCity(t)
	p := NewPrunedPlateaus(g, Options{})
	if _, err := p.Alternatives(-1, 4); err == nil {
		t.Error("invalid source should error")
	}
	routes, err := p.Alternatives(6, 6)
	if err != nil || len(routes) != 1 || !routes[0].Empty() {
		t.Error("s==t should yield one empty route")
	}
	gd, a, c := disconnectedPair(t)
	if _, err := NewPrunedPlateaus(gd, Options{}).Alternatives(a, c); err != ErrNoRoute {
		t.Errorf("unreachable: want ErrNoRoute, got %v", err)
	}
}
