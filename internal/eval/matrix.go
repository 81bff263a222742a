package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// The matrix ablation quantifies the many-to-many engine against the
// k × k independent point-to-point baseline it amortizes away: one shared
// RPHAST selection plus k restricted forward sweeps versus k² full
// tree-pair queries through the same backend. Both sides run through the same
// MatrixEngine (MatrixInto vs MatrixPairwise), so the measured gap is the
// batching scheme, not a backend difference.

// MatrixAblationRow is one batch size's timing comparison.
type MatrixAblationRow struct {
	K                int           // sources == targets == K
	MatrixTime       time.Duration // warm MatrixInto, per call
	PairwiseTime     time.Duration // k² point-to-point baseline, per call
	Speedup          float64
	SelectionTargets int  // shared selection size (0: full sweeps)
	Restricted       bool // whether the sweeps ran restricted
}

// RunMatrixAblation times warm matrix computations against the pairwise
// baseline for each batch size, on endpoint sets sampled uniformly from
// the network.
func (c *City) RunMatrixAblation(ks []int, seed int64) ([]MatrixAblationRow, error) {
	if c.Matrix == nil {
		return nil, fmt.Errorf("eval: %s has no matrix engine", c.Profile.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]MatrixAblationRow, 0, len(ks))
	var tab core.Table
	for _, k := range ks {
		sources := sampleDistinctNodes(c.Graph, k, rng)
		targets := sampleDistinctNodes(c.Graph, k, rng)

		// Warm up: first call builds (and caches) the shared selection.
		if err := c.Matrix.MatrixInto(&tab, sources, targets); err != nil {
			return nil, err
		}
		row := MatrixAblationRow{
			K:                k,
			SelectionTargets: tab.SelectionTargets,
			Restricted:       tab.Restricted,
		}
		row.MatrixTime = timePerCall(repsFor(k), func() error {
			return c.Matrix.MatrixInto(&tab, sources, targets)
		})
		// The baseline is slow enough that one rep is representative.
		row.PairwiseTime = timePerCall(1, func() error {
			return c.Matrix.MatrixPairwise(&tab, sources, targets)
		})
		if row.MatrixTime > 0 {
			row.Speedup = float64(row.PairwiseTime) / float64(row.MatrixTime)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// repsFor scales repetitions down as the batch grows so the ablation
// stays quick at k=64.
func repsFor(k int) int {
	if k >= 32 {
		return 3
	}
	return 10
}

func timePerCall(reps int, fn func() error) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if fn() != nil {
			return 0
		}
	}
	return time.Since(start) / time.Duration(reps)
}

func sampleDistinctNodes(g *graph.Graph, count int, rng *rand.Rand) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, count)
	out := make([]graph.NodeID, 0, count)
	for len(out) < count {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// FormatMatrixAblation renders the matrix-vs-pairwise table (pairwise:
// k² full tree pairs, as a route request builds them), with the
// cumulative matrix selection-cache hit rate of the serving hierarchy
// appended.
func FormatMatrixAblation(city string, rows []MatrixAblationRow, st core.HierarchyStatus) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MATRIX ABLATION (%s): k×k table via shared selection vs k² point-to-point\n", city)
	fmt.Fprintf(&sb, "%-6s %-14s %-14s %-9s %-10s %s\n", "k", "matrix/call", "pairwise/call", "speedup", "selection", "sweeps")
	sb.WriteString(strings.Repeat("-", 66) + "\n")
	for _, r := range rows {
		sweeps := "full"
		if r.Restricted {
			sweeps = "restricted"
		}
		fmt.Fprintf(&sb, "%-6d %-14s %-14s %-9.1f %-10d %s\n",
			r.K, r.MatrixTime.Round(time.Microsecond), r.PairwiseTime.Round(time.Microsecond),
			r.Speedup, r.SelectionTargets, sweeps)
	}
	if total := st.SelectionHits + st.SelectionMisses; total > 0 {
		fmt.Fprintf(&sb, "selection cache: %d hits / %d misses (%.0f%% hit rate), %d bytes\n",
			st.SelectionHits, st.SelectionMisses,
			100*float64(st.SelectionHits)/float64(total), st.SelectionBytes)
	}
	return sb.String()
}
