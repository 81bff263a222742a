package path

import (
	"math"

	"repro/internal/graph"
	"repro/internal/sp"
)

// LocalOptimality quantifies the paper's "meaningful route" notion from
// Abraham et al. [2]: a route is locally optimal when every sufficiently
// short subpath is itself a shortest path — routes with small unnecessary
// detours fail this.
//
// CheckLocalOptimality tests every maximal subpath whose travel time does
// not exceed windowS and reports the worst (largest) ratio between the
// subpath's cost and the true shortest-path cost between its endpoints. A
// perfectly locally-optimal route returns 1. Ratios are computed with the
// same weights used to build the path.
//
// The check runs one pruned Dijkstra per window start, so it is intended
// for evaluation and tests, not for the hot query path.
func CheckLocalOptimality(g *graph.Graph, weights []float64, p Path, windowS float64) float64 {
	return worstWindowRatio(g, weights, p, windowS, math.Inf(1))
}

// IsLocallyOptimal reports whether every windowed subpath of p is within
// tolerance of a true shortest path (ratio ≤ 1+tolerance). It stops at
// the first window over the tolerance.
func IsLocallyOptimal(g *graph.Graph, weights []float64, p Path, windowS, tolerance float64) bool {
	return worstWindowRatio(g, weights, p, windowS, 1+tolerance) <= 1+tolerance
}

// worstWindowRatio is CheckLocalOptimality's window loop. It returns as
// soon as the worst ratio exceeds stop, so the result is exact whenever
// it is at most stop and otherwise only known to exceed it.
func worstWindowRatio(g *graph.Graph, weights []float64, p Path, windowS, stop float64) float64 {
	if len(p.Edges) < 2 {
		return 1
	}
	// Prefix sums of cumulative cost at each node of the path.
	cum := make([]float64, len(p.Nodes))
	for i, e := range p.Edges {
		cum[i+1] = cum[i] + weights[e]
	}
	worst := 1.0
	j := 0
	for i := 0; i < len(p.Nodes)-1; i++ {
		// Grow j to the farthest node within the window from i.
		if j < i+1 {
			j = i + 1
		}
		for j+1 < len(p.Nodes) && cum[j+1]-cum[i] <= windowS {
			j++
		}
		if j <= i+1 {
			continue // single edges are always optimal
		}
		subCost := cum[j] - cum[i]
		if subCost <= 0 {
			continue
		}
		_, optimal := sp.ShortestPath(g, weights, p.Nodes[i], p.Nodes[j])
		if optimal > 0 {
			if r := subCost / optimal; r > worst {
				worst = r
				if worst > stop {
					return worst
				}
			}
		}
	}
	return worst
}
