package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/weights"
)

// The cross-backend equivalence harness — the permanent safety net for
// the hierarchy sweeps and every future tree backend. A tree source that
// drops or misprices a node produces plausible-but-wrong route sets that
// no smoke test notices. So the matrix is pinned property-style: on
// seeded random tie-free networks — random chords and planar street
// grids; continuous random speeds make shortest-path ties measure-zero,
// so route sets are forced — under randomized ±50% traffic plus +Inf
// closure snapshots, TreeCHAuto over every hierarchy flavor and order
// must return byte-identical route sets to the Dijkstra backend for the
// study planners.

// withAutoFraction moves the matrix cutover for the planners and matrix
// engines constructed after the call, until the test ends: 0 pins full
// sweeps on every table, 1 restricted sweeps on every table.
func withAutoFraction(t testing.TB, f float64) {
	t.Helper()
	old := autoFraction
	autoFraction = f
	t.Cleanup(func() { autoFraction = old })
}

// closureSnapshot publishes a ±50% perturbation of the base weights plus
// ~3% random +Inf closures and returns the pinned snapshot.
func closureSnapshot(g *graph.Graph, seed int64) *weights.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	store := weights.NewStore(g.BaseWeights())
	w := make([]float64, len(g.BaseWeights()))
	for i, base := range g.BaseWeights() {
		w[i] = base * (0.5 + rng.Float64())
	}
	store.Publish(w)
	var bans []graph.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < 0.03 {
			bans = append(bans, graph.EdgeID(e))
		}
	}
	if len(bans) > 0 {
		store.Ban(bans...)
	}
	return store.Latest()
}

func TestBackendMatrix(t *testing.T) {
	// Every row runs TreeCHAuto. The first name segment is the matrix
	// cutover set before the row's planners are built — "ch" 0,
	// "ch-restricted" 1, "ch-auto" the production RestrictedAutoFraction —
	// and the rest names the CCH flavor × order × query engine. Tree pairs
	// are full sweeps whatever the cutover, and the query engine only
	// answers Hierarchy.Dist, which no planner calls: every row must match
	// Dijkstra and resolve no selection.
	sweeps := []struct {
		name     string
		fraction float64
	}{{"ch", 0}, {"ch-restricted", 1}, {"ch-auto", RestrictedAutoFraction}}
	type flavor struct {
		name  string
		hkind HierarchyKind
		order OrderKind
		query QueryEngine
	}
	var flavors []flavor
	for _, hkind := range []HierarchyKind{HierarchyCCH, HierarchyCCHPerfect} {
		for _, order := range []OrderKind{OrderGeometric, OrderFlow} {
			for _, query := range []QueryEngine{QueryElimTree, QueryBidij} {
				name := hkind.String()
				if order == OrderFlow {
					name += "/flow"
				}
				if query == QueryBidij {
					name += "/bidij"
				}
				flavors = append(flavors, flavor{name: name, hkind: hkind, order: order, query: query})
			}
		}
	}
	plannerNames := []string{"Plateaus", "PrunedPlateaus", "Dissimilarity", "Penalty", "Commercial"}
	mk := func(g *graph.Graph, snap *weights.Snapshot, o Options) []Planner {
		o.Weights = snap
		pl := NewPlateaus(g, o)
		return []Planner{
			pl,
			pl,
			NewDissimilarity(g, o),
			NewPenalty(g, o),
			// Commercial's private metric is the closure snapshot itself:
			// its hierarchy must respect the same bans as everyone else's.
			NewCommercial(g, nil, o),
		}
	}
	var nets []*graph.Graph
	for seed := int64(500); seed < 503; seed++ {
		nets = append(nets, randomRoadNetwork(seed, 140))
	}
	for seed := int64(500); seed < 503; seed++ {
		nets = append(nets, randomPlanarNetwork(seed, 12, 12))
	}
	for n, g := range nets {
		seed := int64(n)
		snap := closureSnapshot(g, seed+900)
		baseline := mk(g, snap, Options{})
		// The PrunedPlateaus column holds each row's Plateaus to elliptic
		// trees instead: CCH sweeps must also match the §II-B pruning.
		baseline[1] = ellipticPlanner{baseline[0].(*Plateaus)}
		for _, sw := range sweeps {
			for _, fl := range flavors {
				row := sw.name + "/" + fl.name
				withAutoFraction(t, sw.fraction)
				other := mk(g, snap, Options{TreeBackend: TreeCHAuto, Hierarchy: fl.hkind, Order: fl.order, Query: fl.query})
				for i := range baseline {
					t.Run(row+"/"+plannerNames[i], func(t *testing.T) {
						comparePlannersExact(t, baseline[i], other[i], g, 6, seed*31+int64(i))
						if hr, ok := other[i].(hierarchyReporter); ok {
							if st := hr.HierarchyStatus(); st.SelectionHits+st.SelectionMisses != 0 {
								t.Fatalf("%d selections resolved answering routes, want 0", st.SelectionHits+st.SelectionMisses)
							}
						}
					})
				}
			}
		}
	}
}
