package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// The cross-backend equivalence harness — the permanent safety net for
// restricted sweeps and every future tree backend. Restricted sweeps are
// exactly the kind of optimization that silently drops nodes: a selection
// one node too small produces plausible-but-wrong route sets that no
// smoke test notices. So the matrix is pinned property-style: on seeded
// random tie-free networks — random chords and planar street grids;
// continuous random speeds make shortest-path ties measure-zero, so route
// sets are forced — under randomized ±50%
// traffic plus +Inf closure snapshots, TreeCHAuto over every hierarchy
// flavor, order and query engine must return byte-identical route sets to
// the Dijkstra backend for the study planners.

// withAutoFraction moves the TreeCHAuto cutover for the planners
// constructed after the call, until the test ends: 0 pins full sweeps on
// every query, 1 restricted sweeps on every query.
func withAutoFraction(t testing.TB, f float64) {
	t.Helper()
	old := autoFraction
	autoFraction = f
	t.Cleanup(func() { autoFraction = old })
}

// mixedAutoFraction is the cutover at which the small test networks run
// both sweep modes. Their ellipses cover most of the graph — every node
// of randomRoadNetwork's random chords, most of a 144-node planar grid
// under ±50% traffic — so the production cutover restricts almost
// nothing there.
const mixedAutoFraction = 0.8

// sweepTally wraps a planner and counts, per answered query, whether its
// trees came from restricted or full sweeps (HierarchyStatus read right
// after the query, so callers must query serially).
type sweepTally struct {
	Planner
	restricted, full *int
}

func (s sweepTally) Alternatives(src, dst graph.NodeID) ([]path.Path, error) {
	routes, err := s.Planner.Alternatives(src, dst)
	if hr, ok := s.Planner.(hierarchyReporter); ok && err == nil {
		if hr.HierarchyStatus().LastRestricted {
			*s.restricted++
		} else {
			*s.full++
		}
	}
	return routes, err
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
	// Every row runs TreeCHAuto. The first name segment is the sweep mode
	// its cutover pins — "ch" sweeps every query in full, "ch-restricted"
	// restricts every query, "ch-auto" sits where the sample runs both —
	// and the rest names the CCH flavor × order × query engine.
	sweeps := []struct {
		name     string
		fraction float64
	}{{"ch", 0}, {"ch-restricted", 1}, {"ch-auto", mixedAutoFraction}}
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
		return []Planner{
			NewPlateaus(g, o),
			NewPrunedPlateaus(g, o),
			NewDissimilarity(g, o),
			NewPenalty(g, o),
			// Commercial's private metric is the closure snapshot itself:
			// its hierarchy and its elliptic/restricted selections must
			// respect the same bans as everyone else's.
			NewCommercial(g, nil, o),
		}
	}
	// Random chords stress the hierarchies; only the planar grids hold
	// pairs short enough for the ch-auto rows to restrict.
	var nets []*graph.Graph
	for seed := int64(500); seed < 503; seed++ {
		nets = append(nets, randomRoadNetwork(seed, 140))
	}
	for seed := int64(500); seed < 503; seed++ {
		nets = append(nets, randomPlanarNetwork(seed, 12, 12))
	}
	type tally struct {
		mode             string
		restricted, full int
	}
	tallies := map[string]*tally{}
	for n, g := range nets {
		seed := int64(n)
		snap := closureSnapshot(g, seed+900)
		baseline := mk(g, snap, Options{})
		for _, sw := range sweeps {
			for _, fl := range flavors {
				row := sw.name + "/" + fl.name
				withAutoFraction(t, sw.fraction)
				other := mk(g, snap, Options{TreeBackend: TreeCHAuto, Hierarchy: fl.hkind, Order: fl.order, Query: fl.query})
				if tallies[row] == nil {
					tallies[row] = &tally{mode: sw.name}
				}
				tl := tallies[row]
				for i, pl := range other {
					other[i] = sweepTally{Planner: pl, restricted: &tl.restricted, full: &tl.full}
				}
				for i := range baseline {
					t.Run(row+"/"+plannerNames[i], func(t *testing.T) {
						comparePlannersExact(t, baseline[i], other[i], g, 6, seed*31+int64(i))
					})
				}
			}
		}
	}
	// The rows must have run the sweeps their names promise.
	for row, tl := range tallies {
		t.Logf("%s: %d restricted / %d full sweep queries", row, tl.restricted, tl.full)
		switch {
		case tl.mode == "ch" && (tl.restricted != 0 || tl.full == 0):
			t.Errorf("%s: %d restricted / %d full sweep queries, want full sweeps only", row, tl.restricted, tl.full)
		case tl.mode == "ch-restricted" && (tl.full != 0 || tl.restricted == 0):
			t.Errorf("%s: %d restricted / %d full sweep queries, want restricted sweeps only", row, tl.restricted, tl.full)
		case tl.mode == "ch-auto" && (tl.restricted == 0 || tl.full == 0):
			t.Errorf("%s: %d restricted / %d full sweep queries, want both", row, tl.restricted, tl.full)
		}
	}
}

// TestBackendMatrixObservability spot-checks the restricted sweeps'
// serving telemetry: after a query, the planner reports its hierarchy, a
// selection size and sweep time, and whether it restricted.
func TestBackendMatrixObservability(t *testing.T) {
	withAutoFraction(t, 1)
	g := randomRoadNetwork(7, 140)
	pl := NewPlateaus(g, Options{TreeBackend: TreeCHAuto})
	s, dst, _ := banFastestRoute(t, g, pl, 5)
	if _, err := pl.Alternatives(s, dst); err != nil {
		t.Fatal(err)
	}
	st := pl.HierarchyStatus()
	if st.Kind != "cch" {
		t.Fatalf("restricted sweeps report hierarchy %q", st.Kind)
	}
	if !st.LastRestricted || st.LastSelection <= 0 || st.LastSelection > g.NumNodes() {
		t.Fatalf("restricted query telemetry: restricted=%v selection=%d", st.LastRestricted, st.LastSelection)
	}
	if st.LastSweep <= 0 {
		t.Fatalf("restricted query reported no sweep time")
	}
}
