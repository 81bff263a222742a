package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/citygen"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/weights"
)

// penaltyReference is the Penalty planner with undirected searches: every
// iteration a plain target-pruned Dijkstra on the penalized working copy
// of base. The planner must return exactly its route sets.
func penaltyReference(p *Penalty, base []float64, s, t graph.NodeID) ([]path.Path, error) {
	if err := validateQuery(p.g, s, t); err != nil {
		return nil, err
	}
	if s == t {
		return trivialQuery(p.g, base, s), nil
	}
	work := append([]float64(nil), base...)
	ws := sp.GetWorkspace()
	defer ws.Release()

	maxIterations := 4*p.opts.K + 4
	routes := make([]path.Path, 0, p.opts.K)
	var fastest float64
	for iter := 0; iter < maxIterations && len(routes) < p.opts.K; iter++ {
		edges, _ := sp.ShortestPathInto(ws, p.g, work, s, t)
		if edges == nil {
			break
		}
		if !admit(p.g, path.Path{Edges: edges}, routes, 0) {
			p.penalize(work, edges)
			continue
		}
		cand := path.MustNew(p.g, base, s, edges)
		if iter == 0 {
			fastest = cand.TimeS
		}
		ok := admit(p.g, cand, routes, p.opts.SimilarityCutoff)
		if ok && p.opts.ApplyUpperBoundToPenalty && fastest > 0 &&
			cand.TimeS > p.opts.UpperBound*fastest {
			ok = false
		}
		if ok && !admitLocalOpt(p.g, base, cand, fastest, p.opts) {
			ok = false
		}
		if ok {
			cand.Edges = append([]graph.EdgeID(nil), edges...)
			routes = append(routes, cand)
		}
		p.penalize(work, edges)
	}
	if len(routes) == 0 {
		return nil, ErrNoRoute
	}
	return routes, nil
}

// TestPenaltyMatchesReference pins the goal-directed Penalty to the
// reference on the three study cities, on both tree backends, under base
// weights and under traffic plus closures, across the options Penalty
// reads. Each row answers standalone (a pair of its own) and through the
// engine beside Plateaus (the shared pair).
func TestPenaltyMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine oracle: nothing for the race detector to find, and slow under it")
	}
	pairs := 6
	if testing.Short() {
		pairs = 2
	}
	rows := []Options{
		{},
		{K: 5},
		{PenaltyFactor: 1.1},
		{PenaltyFactor: 2.0},
		{SimilarityCutoff: 0.6},
		{ApplyUpperBoundToPenalty: true},
		{LocalOptimalityWindow: 0.5},
	}
	alternatives := 0
	for _, prof := range citygen.Profiles() {
		g, err := prof.Generate(2022)
		if err != nil {
			t.Fatal(err)
		}
		qs := separatedPairs(g, pairs, 800, 2022)
		snaps := []struct {
			name string
			snap *weights.Snapshot
		}{{"base", weights.Pin(g.BaseWeights())}, {"closures", closureSnapshot(g, 2022)}}
		for _, sn := range snaps {
			for _, backend := range []TreeBackend{TreeDijkstra, TreeCHAuto} {
				opts := Options{Weights: sn.snap, TreeBackend: backend}
				pl := NewPlateaus(g, opts)
				alone := NewPenalty(g, opts)
				base := sn.snap.Weights()
				e := NewEngine(2)
				for ri, row := range rows {
					row.Weights, row.TreeBackend = sn.snap, backend
					row = row.withDefaults()
					// The served Penalty shares Plateaus' provider, and with
					// it the request's tree pair.
					served := &Penalty{versioned: pl.versioned, g: g, opts: row}
					standalone := &Penalty{versioned: alone.versioned, g: g, opts: row}
					label := fmt.Sprintf("%s/%s/%s/row%d", prof.Name, sn.name, backend, ri)
					rowQs := qs
					if row.LocalOptimalityWindow > 0 {
						// Each windowed subpath costs a Dijkstra search of
						// its own: two pairs keep the row affordable.
						rowQs = qs[:2]
					}
					for qi, q := range rowQs {
						want, wantErr := penaltyReference(standalone, base, q[0], q[1])
						got, gotErr := standalone.Alternatives(q[0], q[1])
						sameRoutes(t, fmt.Sprintf("%s/q%d/standalone", label, qi), got, gotErr, want, wantErr)
						res := e.Alternatives([]Planner{pl, served}, q[0], q[1])
						sameRoutes(t, fmt.Sprintf("%s/q%d/engine", label, qi), res[1].Routes, res[1].Err, want, wantErr)
						if len(want) > 1 {
							alternatives++
						}
					}
				}
			}
		}
	}
	if alternatives == 0 {
		t.Fatal("no query returned an alternative; the comparison covered only fastest paths")
	}
}

// TestPenaltySearchIsGoalDirected measures what the potential buys: over
// 50 Melbourne pairs, Penalty's three searches with the backward tree as
// potential touch at most a quarter of the nodes the plain Dijkstra
// searches touch on the same penalized weights.
func TestPenaltySearchIsGoalDirected(t *testing.T) {
	g, err := citygen.Melbourne().Generate(2022)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPenalty(g, Options{})
	base := g.BaseWeights()
	work := make([]float64, len(base))
	dij, pot := sp.NewWorkspace(), sp.NewWorkspace()
	touched := func(ws *sp.Workspace) int {
		n := 0
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if ws.F.Touched(v) {
				n++
			}
		}
		return n
	}
	var plain, directed int
	for _, q := range separatedPairs(g, 50, 800, 2022) {
		s, dst := q[0], q[1]
		bwd := sp.BuildTree(g, base, dst, sp.Backward)
		copy(work, base)
		for iter := 0; iter < 3; iter++ {
			want, wantD := sp.ShortestPathInto(dij, g, work, s, dst)
			if want == nil {
				break
			}
			plain += touched(dij)
			got, gotD := sp.PotentialShortestPathInto(pot, g, work, s, dst, bwd.Dist)
			directed += touched(pot)
			if gotD != wantD || !slices.Equal(got, want) {
				t.Fatalf("%d->%d iteration %d: the directed search found another path", s, dst, iter)
			}
			p.penalize(work, want)
		}
	}
	if plain == 0 {
		t.Fatal("no search ran")
	}
	ratio := float64(directed) / float64(plain)
	t.Logf("directed searches touched %d nodes, Dijkstra %d (%.1f %%)", directed, plain, 100*ratio)
	if ratio > 0.25 {
		t.Fatalf("directed searches touched %.1f %% of Dijkstra's nodes, want at most 25 %%", 100*ratio)
	}
}
