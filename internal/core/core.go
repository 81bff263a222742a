// Package core implements the alternative-route planning techniques the
// paper compares:
//
//   - Penalty (Akgün et al.; Chen et al.): iterated shortest paths with
//     multiplicative edge penalties (penalty.go),
//   - Plateaus (Cotares "Choice Routing"; Abraham et al.): joining forward
//     and backward shortest-path trees and growing routes from the longest
//     plateaus (plateaus.go),
//   - Dissimilarity (Chondrogiannis et al., SSVP-D+): via-node paths in
//     ascending cost order thresholded on pairwise similarity
//     (dissimilarity.go),
//   - Commercial (the stand-in for Google Maps): plans on its own private
//     traffic-aware weight data and applies extra ranking criteria
//     (commercial.go),
//
// plus Yen's k-shortest-paths algorithm as the classic baseline whose
// routes are too similar to serve as alternatives (yen.go).
//
// All planners return routes whose displayed travel time (Path.TimeS) is
// computed under the public OSM-derived weights, exactly as the paper's
// query processor does for all four approaches, whatever data the planner
// used internally.
package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
)

// Paper parameter defaults (§III "Parameter Details").
const (
	// DefaultK is the number of routes displayed per approach, including
	// the fastest route.
	DefaultK = 3
	// DefaultPenaltyFactor multiplies the weight of every edge of a found
	// path before the next Penalty iteration.
	DefaultPenaltyFactor = 1.4
	// DefaultUpperBound caps an alternative's travel time at this multiple
	// of the fastest travel time (Plateaus, Dissimilarity).
	DefaultUpperBound = 1.4
	// DefaultTheta is the Dissimilarity admission threshold: a route joins
	// the result set only if its similarity to every selected route is
	// below θ.
	DefaultTheta = 0.5
)

// ErrNoRoute is returned when the target is unreachable from the source.
var ErrNoRoute = errors.New("core: no route between source and target")

// Planner generates up to K alternative routes between two vertices. The
// first returned route is always the planner's best route; all returned
// routes are pairwise distinct edge sequences.
//
// The interface is sealed: only this package's planners implement it.
// Each reads its weights through a provider, and Engine.Alternatives
// pins one view per distinct provider when a query starts and runs every
// planner of the query on it, so planners sharing a provider
// (NewStudyPlanners' Plateaus, Dissimilarity and Penalty on the public
// store) answer one query under one snapshot version by construction. The
// Router reaches the providers to refresh them on publish, to read their
// serving versions and to install a city's Metrics.
type Planner interface {
	// Name returns the technique's display name.
	Name() string
	// Alternatives returns 1..K routes from s to t. It returns ErrNoRoute
	// if t is unreachable from s. s == t yields a single empty route.
	Alternatives(s, t graph.NodeID) ([]path.Path, error)
	// source returns the provider the planner reads its weights from.
	source() *provider
	// alternativesOn answers one query entirely under v, a view of source.
	alternativesOn(v *view, s, t graph.NodeID) ([]path.Path, error)
}

// Options configures a planner. The zero value selects the paper's
// parameters via the Default* constants.
type Options struct {
	// Weights is the weight source the planner resolves per query: a
	// *weights.Store for live traffic (each query plans on the store's
	// latest snapshot) or a *weights.Snapshot to pin one version forever.
	// nil pins the graph's base travel-time weights — the static
	// configuration of the paper's experiments. For the Commercial
	// planner this source is its *private* (traffic-aware) metric; all
	// other planners plan on the public metric.
	Weights weights.Source
	// K is the maximum number of routes to return (default 3).
	K int
	// UpperBound caps alternative travel time at UpperBound × fastest
	// (default 1.4). Ignored by the Penalty planner, matching the paper,
	// unless ApplyUpperBoundToPenalty is set.
	UpperBound float64
	// PenaltyFactor is the per-iteration weight multiplier of the Penalty
	// planner (default 1.4). A factor below 1 selects the default: the
	// technique only raises weights, which Penalty's goal-directed search
	// relies on.
	PenaltyFactor float64
	// Theta is the Dissimilarity admission threshold (default 0.5).
	Theta float64
	// TreeBackend selects how the tree-source planners (Plateaus,
	// Commercial, Dissimilarity, Penalty) build their shortest-path
	// trees: full Dijkstra searches (TreeDijkstra, the default, matching
	// the paper's description) or full PHAST sweeps over a customizable
	// contraction hierarchy (TreeCHAuto, the §II-B optimisation commercial
	// engines apply). Both backends produce identical route sets;
	// TreeCHAuto trades a one-off preprocessing at planner construction
	// for much cheaper queries. Only the matrix engine restricts its
	// sweeps (RPHAST).
	TreeBackend TreeBackend
	// Hierarchy selects the customizable-hierarchy flavor behind
	// TreeCHAuto: HierarchyCCH (the default) contracts metric-independently
	// on a nested-dissection order and customizes by triangle relaxation,
	// staying exact for every published snapshot including +Inf closures;
	// HierarchyCCHPerfect adds the perfect-customization post-pass
	// (dominated-pair pruning) on every publish. Ignored on TreeDijkstra.
	Hierarchy HierarchyKind
	// Order selects the nested-dissection pipeline behind the hierarchy:
	// OrderGeometric (the zero value) bisects on coordinates with a greedy
	// vertex-cover separator; OrderFlow refines every split with an
	// inertial-flow minimum vertex cut — smaller separators, fewer
	// triangles, measurably faster customization on every publish, at the
	// cost of a slower one-off preprocessing. Preprocessings are shared
	// per (graph, order kind). PlannerFlags fixes OrderFlow. Ignored on
	// TreeDijkstra.
	Order OrderKind
	// Query is ignored: no provider builds a point-to-point query engine,
	// since no planner or matrix asks one. It is kept only so the
	// benchmark harness, which still names it, compiles until the
	// point-to-point query is deleted.
	Query QueryEngine
	// ApplyUpperBoundToPenalty additionally filters Penalty routes by the
	// upper bound — one of the "easily included" refinements of §IV-C.
	ApplyUpperBoundToPenalty bool
	// SimilarityCutoff, when positive, drops any candidate whose
	// similarity to an already selected route exceeds the cutoff. The
	// paper notes (§IV-B) this constraint "can be easily integrated" into
	// Penalty and Plateaus; it is off by default to match the studied
	// configuration.
	SimilarityCutoff float64
	// LocalOptimalityWindow, when positive, drops candidates that are not
	// locally optimal: every subpath whose travel time is at most
	// LocalOptimalityWindow × the fastest s-t time must itself be within
	// LocalOptimalityTolerance of a shortest path. §IV-C lists this as a
	// refinement the study did not apply ("we could filter the routes in
	// Penalty and Dissimilarity approaches that did not satisfy local
	// optimality"); it is off by default to match the studied
	// configuration.
	LocalOptimalityWindow float64
	// LocalOptimalityTolerance is the allowed relative excess of a
	// windowed subpath over the true shortest path (default 0.02 when the
	// window is enabled).
	LocalOptimalityTolerance float64
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = DefaultK
	}
	if o.UpperBound <= 0 {
		o.UpperBound = DefaultUpperBound
	}
	if o.PenaltyFactor < 1 {
		o.PenaltyFactor = DefaultPenaltyFactor
	}
	if o.Theta <= 0 {
		o.Theta = DefaultTheta
	}
	if o.LocalOptimalityWindow > 0 && o.LocalOptimalityTolerance <= 0 {
		o.LocalOptimalityTolerance = 0.02
	}
	return o
}

// NewStudyPlanners builds the paper's four approaches in Table I column
// order: GMaps (Commercial), Plateaus, Dissimilarity, Penalty.
// Commercial plans on private (its traffic metric; must not be nil); the
// other three plan on Options.Weights through one shared provider, so
// every query the engine answers reports one version for all three, and
// within a query Plateaus, Dissimilarity and Penalty read one public tree
// pair (see Engine.Alternatives): the first two join it, Penalty
// searches toward t with its backward tree as potential. Commercial's
// traffic pair is built in the same group, and on ch-auto (basic cch)
// all four public and traffic trees come out of one pass over the two
// providers' joint topology, since both customize the same
// preprocessing. Building them separately
// would give each its own provider: a double-buffered Plateaus could then
// answer one response a version behind Dissimilarity and Penalty, and the
// two tree users would each build their own pair.
func NewStudyPlanners(g *graph.Graph, opts Options, private weights.Source) [4]Planner {
	copts := opts
	copts.Weights = private
	pl := NewPlateaus(g, opts)
	c := NewCommercial(g, nil, copts)
	shareJoint(pl.prov, c.prov, opts)
	return [4]Planner{
		c,
		pl,
		&Dissimilarity{versioned: pl.versioned, g: g, opts: pl.opts},
		&Penalty{versioned: pl.versioned, g: g, opts: pl.opts},
	}
}

func validateQuery(g *graph.Graph, s, t graph.NodeID) error {
	n := graph.NodeID(g.NumNodes())
	if s < 0 || s >= n {
		return fmt.Errorf("core: source %d out of range [0,%d)", s, n)
	}
	if t < 0 || t >= n {
		return fmt.Errorf("core: target %d out of range [0,%d)", t, n)
	}
	return nil
}

// trivialQuery handles the s == t case shared by all planners.
func trivialQuery(g *graph.Graph, weights []float64, s graph.NodeID) []path.Path {
	return []path.Path{path.MustNew(g, weights, s, nil)}
}

// admit reports whether candidate is acceptable given the already selected
// routes under the optional similarity cutoff, and is not a duplicate.
func admit(g *graph.Graph, cand path.Path, selected []path.Path, simCutoff float64) bool {
	for i := range selected {
		if path.Equal(cand, selected[i]) {
			return false
		}
	}
	if simCutoff > 0 && path.MaxSimilarityTo(g, cand, selected) > simCutoff {
		return false
	}
	return true
}

// admitLocalOpt applies the optional local-optimality refinement: with a
// zero window it always accepts, otherwise the candidate's windowed
// subpaths must all be near-shortest under the given weights. fastest is
// the s-t fastest travel time, which scales the window.
func admitLocalOpt(g *graph.Graph, weights []float64, cand path.Path, fastest float64, o Options) bool {
	if o.LocalOptimalityWindow <= 0 || fastest <= 0 {
		return true
	}
	window := o.LocalOptimalityWindow * fastest
	return path.IsLocallyOptimal(g, weights, cand, window, o.LocalOptimalityTolerance)
}
