package core

import (
	"repro/internal/graph"
)

// PrunedPlateaus is the §II-B "compatibility with routing optimisations"
// variant of the Plateaus planner: instead of two full Dijkstra trees it
// builds elliptically pruned trees that only explore nodes able to lie on
// a route within UpperBound × the fastest travel time. As the paper
// argues, such trees "must still cover all feasible routes... and so when
// they are combined, they still yield the same choice routes" — which the
// test suite verifies against the full-tree planner.
//
// With Options.TreeBackend == TreeCHAuto the planner instead sweeps its
// trees out of the customizable hierarchy, where the same ellipse bounds
// the restricted sweeps — it is then the Plateaus planner under its own
// name.
type PrunedPlateaus struct {
	*Plateaus
}

// NewPrunedPlateaus returns the pruned-tree plateau planner.
func NewPrunedPlateaus(g *graph.Graph, opts Options) *PrunedPlateaus {
	return &PrunedPlateaus{newPlateaus(g, opts, opts.TreeBackend != TreeCHAuto)}
}

// Name implements Planner.
func (p *PrunedPlateaus) Name() string { return "Plateaus(pruned)" }

// setMetrics sinks the observers under this planner's own name (not the
// inner Plateaus', which may also be serving separately).
func (p *PrunedPlateaus) setMetrics(m *Metrics) {
	p.prov.setMetrics(m.customizeObserver(p.Name()), m.selectionObserver())
}
