package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/path"
	"repro/internal/simstudy"
	"repro/internal/stats"
)

// Ablation quantifies the design choices the paper discusses but holds
// fixed in the study: the penalty factor (1.4, from Bader et al.), the
// dissimilarity threshold θ (0.5), and the §IV-C refinements (similarity
// cutoff, local-optimality filter) that were deliberately not applied.
// For each configuration it reports, over a shared query sample: the mean
// number of routes, mean Sim(T), mean stretch of the slowest reported
// route, and the fraction of route sets containing a near-duplicate pair
// (similarity > 0.8).

// AblationRow is one configuration's aggregate quality measures.
type AblationRow struct {
	Name           string
	MeanRoutes     float64
	MeanSimT       float64
	MeanMaxStretch float64
	NearDupFrac    float64
}

// AblationConfig names a planner factory to evaluate.
type AblationConfig struct {
	Name string
	Make func() core.Planner
}

// DefaultAblationConfigs returns the sweep evaluated by cmd/userstudy
// -ablation: the studied configuration of each technique plus the
// variations the paper calls out.
func DefaultAblationConfigs(c *City) []AblationConfig {
	g := c.Graph
	return []AblationConfig{
		{"Penalty (paper, factor 1.4)", func() core.Planner { return core.NewPenalty(g, core.Options{}) }},
		{"Penalty factor 1.1", func() core.Planner { return core.NewPenalty(g, core.Options{PenaltyFactor: 1.1}) }},
		{"Penalty factor 2.0", func() core.Planner { return core.NewPenalty(g, core.Options{PenaltyFactor: 2.0}) }},
		{"Penalty + sim cutoff 0.6", func() core.Planner { return core.NewPenalty(g, core.Options{SimilarityCutoff: 0.6}) }},
		{"Penalty + local-opt filter", func() core.Planner {
			return core.NewPenalty(g, core.Options{LocalOptimalityWindow: 0.5})
		}},
		{"Plateaus (paper, UB 1.4)", func() core.Planner { return core.NewPlateaus(g, core.Options{}) }},
		{"Plateaus UB 1.2", func() core.Planner { return core.NewPlateaus(g, core.Options{UpperBound: 1.2}) }},
		{"Plateaus + sim cutoff 0.6", func() core.Planner { return core.NewPlateaus(g, core.Options{SimilarityCutoff: 0.6}) }},
		{"Plateaus CCH trees (ch-auto)", func() core.Planner {
			return core.NewPlateaus(g, core.Options{TreeBackend: core.TreeCHAuto})
		}},
		{"GMaps Dijkstra trees (default)", func() core.Planner { return core.NewCommercial(g, c.Traffic, core.Options{}) }},
		{"GMaps CCH trees (ch-auto)", func() core.Planner {
			return core.NewCommercial(g, c.Traffic, core.Options{TreeBackend: core.TreeCHAuto})
		}},
		{"Dissimilarity (paper, θ 0.5)", func() core.Planner { return core.NewDissimilarity(g, core.Options{}) }},
		{"Dissimilarity θ 0.3", func() core.Planner { return core.NewDissimilarity(g, core.Options{Theta: 0.3}) }},
		{"Dissimilarity θ 0.7", func() core.Planner { return core.NewDissimilarity(g, core.Options{Theta: 0.7}) }},
		{"ESX θ 0.5 (related work)", func() core.Planner { return core.NewESX(g, core.Options{}) }},
		{"Pareto skyline (related work)", func() core.Planner { return core.NewPareto(g, core.Options{}) }},
		{"Yen k-shortest (baseline)", func() core.Planner { return core.NewYen(g, core.Options{}) }},
	}
}

// RunAblation evaluates every configuration on numQueries medium-band
// queries of the city.
func (c *City) RunAblation(configs []AblationConfig, numQueries int, seed int64) ([]AblationRow, error) {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, 0, numQueries)
	for len(queries) < numQueries {
		q, ok := c.SampleQuery(rng, simstudy.Medium)
		if !ok {
			return nil, fmt.Errorf("eval: ablation cannot sample medium queries on %s", c.Profile.Name)
		}
		queries = append(queries, q)
	}
	rows := make([]AblationRow, 0, len(configs))
	for _, cfg := range configs {
		pl := cfg.Make()
		var nRoutes, simT, maxStretch []float64
		nearDup := 0
		for _, q := range queries {
			routes, err := pl.Alternatives(q.S, q.T)
			if err != nil {
				continue
			}
			nRoutes = append(nRoutes, float64(len(routes)))
			st := path.SimT(c.Graph, routes)
			simT = append(simT, st)
			worst := 1.0
			for _, r := range routes {
				if s := r.TimeS / q.FastestS; s > worst {
					worst = s
				}
			}
			maxStretch = append(maxStretch, worst)
			if st > 0.8 {
				nearDup++
			}
		}
		row := AblationRow{Name: cfg.Name}
		if len(nRoutes) > 0 {
			row.MeanRoutes = stats.Mean(nRoutes)
			row.MeanSimT = stats.Mean(simT)
			row.MeanMaxStretch = stats.Mean(maxStretch)
			row.NearDupFrac = float64(nearDup) / float64(len(nRoutes))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(city string, rows []AblationRow, numQueries int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ABLATION (%s, %d medium-band queries): effect of the studied parameters and the §IV-C refinements\n",
		city, numQueries)
	fmt.Fprintf(&sb, "%-32s %-8s %-10s %-12s %s\n", "configuration", "routes", "Sim(T)", "max stretch", "near-dup sets")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-32s %-8.2f %-10.3f %-12.3f %.0f%%\n",
			r.Name, r.MeanRoutes, r.MeanSimT, r.MeanMaxStretch, r.NearDupFrac*100)
	}
	return sb.String()
}
