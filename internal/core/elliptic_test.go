package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
	"repro/internal/weights"
)

// The §II-B claim under test: elliptically pruned trees "still yield the
// same choice routes" as full trees, because every route within the upper
// bound lies inside the ellipse. No backend serves pruned trees; these
// tests plug a test-local elliptic TreeSource into the planners' own code
// through alternativesOn and compare against the Dijkstra backend.

// ellipticTrees is the elliptic TreeSource: a bidirectional probe finds
// the fastest time, then both trees explore only nodes that can lie on a
// route within upperBound × fastest. Within that budget the trees'
// distances equal the full trees', so the choice routes are preserved.
type ellipticTrees struct {
	g          *graph.Graph
	weights    []float64
	scale      float64 // admissible seconds-per-meter lower bound of weights
	upperBound float64
}

// newEllipticTrees scans the snapshot's weights for the admissible scale,
// the invariant the pruning bound depends on.
func newEllipticTrees(g *graph.Graph, snap *weights.Snapshot, upperBound float64) *ellipticTrees {
	w := snap.Weights()
	return &ellipticTrees{g: g, weights: w, scale: sp.MinSecondsPerMeter(g, w), upperBound: upperBound}
}

func (p *ellipticTrees) BuildTrees(ws *sp.Workspace, s, t graph.NodeID) (fwd, bwd *sp.Tree, ok bool) {
	_, fastest := sp.BidirectionalShortestPathInto(ws, p.g, p.weights, s, t)
	if math.IsInf(fastest, 1) {
		return nil, nil, false
	}
	maxCost := p.upperBound * fastest
	fwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, s, sp.Forward, t, maxCost, p.scale)
	bwd = sp.BuildPrunedTreeInto(ws, p.g, p.weights, t, sp.Backward, s, maxCost, p.scale)
	if !fwd.Reached(t) {
		return fwd, bwd, false
	}
	return fwd, bwd, true
}

// BuildTree is a complete Dijkstra tree: pruning needs both endpoints.
func (p *ellipticTrees) BuildTree(ws *sp.Workspace, root graph.NodeID, dir sp.Direction) *sp.Tree {
	return sp.BuildTreeInto(ws, p.g, p.weights, root, dir)
}

// ellipticPlanner answers with pl's own code on elliptic trees of the
// snapshot of the view it is given: the view an Engine batch pinned for
// pl's provider, or the one that provider serves now. The planners under
// test run the default upper bound.
type ellipticPlanner struct{ pl Planner }

func (e ellipticPlanner) Name() string { return e.pl.Name() + "(pruned)" }

func (e ellipticPlanner) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return answer(e, s, t)
}

func (e ellipticPlanner) source() *provider { return e.pl.source() }

func (e ellipticPlanner) alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error) {
	elliptic := &view{snap: v.snap, trees: newEllipticTrees(e.source().g, v.snap, DefaultUpperBound)}
	return e.pl.alternativesOn(elliptic, s, t)
}

// prunedPlateaus is Plateaus on elliptic trees.
func prunedPlateaus(g *graph.Graph, opts Options) Planner {
	return ellipticPlanner{NewPlateaus(g, opts)}
}

// checkEllipticMatchesFull compares each full-tree planner with its own
// code on elliptic trees.
func checkEllipticMatchesFull(t *testing.T, g *graph.Graph, full []Planner, queries int, seed int64) {
	t.Helper()
	for _, pl := range full {
		comparePlannersExact(t, pl, ellipticPlanner{pl}, g, queries, seed)
	}
}

// TestPrunedPlateausMatchesFullTreePlanner pins the §II-B claim on the grid
// city: both plateau planners return the same route sets on elliptic trees
// as on full trees.
func TestPrunedPlateausMatchesFullTreePlanner(t *testing.T) {
	g := testCity(t)
	private := traffic.Apply(g, traffic.DefaultModel(21))
	checkEllipticMatchesFull(t, g, []Planner{NewPlateaus(g, Options{}), NewCommercial(g, private, Options{})}, 20, 21)
}

// TestCommercialPrunedMatchesFullTrees pins the same claim on tie-free
// random networks under a private traffic model.
func TestCommercialPrunedMatchesFullTrees(t *testing.T) {
	for seed := int64(200); seed < 204; seed++ {
		g := randomRoadNetwork(seed, 150)
		private := traffic.Apply(g, traffic.DefaultModel(uint64(seed)+9))
		checkEllipticMatchesFull(t, g, []Planner{NewCommercial(g, private, Options{}), NewPlateaus(g, Options{})}, 12, seed)
	}
}

// TestEllipticTreesYieldSameChoiceRoutes pins the claim under a closure
// snapshot, where the pruning bound's admissible scale comes from the
// snapshot's weights rather than the base graph's.
func TestEllipticTreesYieldSameChoiceRoutes(t *testing.T) {
	for seed := int64(200); seed < 204; seed++ {
		g := randomRoadNetwork(seed, 150)
		t.Run(fmt.Sprintf("closure-%d", seed), func(t *testing.T) {
			o := Options{Weights: closureSnapshot(g, seed+900)}
			checkEllipticMatchesFull(t, g, []Planner{NewPlateaus(g, o), NewCommercial(g, nil, o)}, 12, seed)
		})
	}
}

// TestPrunedPlateausExploresFewerNodes keeps the claim above from being
// vacuous: the elliptic trees really do explore less than full ones.
func TestPrunedPlateausExploresFewerNodes(t *testing.T) {
	g := testCity(t)
	trees := newEllipticTrees(g, weights.Pin(g.BaseWeights()), DefaultUpperBound)
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

// TestPrunedPlateausContract pins the Planner contract on elliptic trees,
// including the unreachable target the bidirectional probe reports.
func TestPrunedPlateausContract(t *testing.T) {
	g := testCity(t)
	p := prunedPlateaus(g, Options{})
	if _, err := p.Alternatives(-1, 4); err == nil {
		t.Error("invalid source should error")
	}
	routes, err := p.Alternatives(6, 6)
	if err != nil || len(routes) != 1 || !routes[0].Empty() {
		t.Error("s==t should yield one empty route")
	}
	gd, a, c := disconnectedPair(t)
	if _, err := prunedPlateaus(gd, Options{}).Alternatives(a, c); err != ErrNoRoute {
		t.Errorf("unreachable: want ErrNoRoute, got %v", err)
	}
}

// TestPrunedPlateausCHBackend pins that full CCH sweeps and elliptic
// Dijkstra trees agree: the optimisation the server runs and the one
// §II-B describes yield the same choice routes.
func TestPrunedPlateausCHBackend(t *testing.T) {
	g := randomRoadNetwork(7, 150)
	comparePlannersExact(t, prunedPlateaus(g, Options{}), NewPlateaus(g, Options{TreeBackend: TreeCHAuto}), g, 12, 7)
}
