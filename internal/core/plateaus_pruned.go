package core

import (
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/weights"
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
	inner *Plateaus
}

// NewPrunedPlateaus returns the pruned-tree plateau planner.
func NewPrunedPlateaus(g *graph.Graph, opts Options) *PrunedPlateaus {
	return &PrunedPlateaus{inner: newPlateaus(g, opts, opts.TreeBackend != TreeCHAuto)}
}

// Name implements Planner.
func (p *PrunedPlateaus) Name() string { return "Plateaus(pruned)" }

// WeightsVersion implements VersionedPlanner.
func (p *PrunedPlateaus) WeightsVersion() weights.Version { return p.inner.WeightsVersion() }

func (p *PrunedPlateaus) refreshAsync() { p.inner.refreshAsync() }
func (p *PrunedPlateaus) refreshSync()  { p.inner.refreshSync() }

func (p *PrunedPlateaus) servingVersion() weights.Version { return p.inner.servingVersion() }

func (p *PrunedPlateaus) weightsSource() weights.Source { return p.inner.weightsSource() }

// HierarchyStatus reports the hierarchy flavor serving this planner, its
// last customization latency and its sweep counters (zero off
// TreeCHAuto).
func (p *PrunedPlateaus) HierarchyStatus() HierarchyStatus { return p.inner.HierarchyStatus() }

// setMetrics sinks the observers under this planner's own name (not the
// inner Plateaus', which may also be serving separately).
func (p *PrunedPlateaus) setMetrics(m *Metrics) {
	p.inner.prov.setMetrics(m.customizeObserver(p.Name()), m.selectionObserver())
}

// Alternatives implements Planner.
func (p *PrunedPlateaus) Alternatives(s, t graph.NodeID) ([]path.Path, error) {
	return p.inner.Alternatives(s, t)
}

// AlternativesVersioned implements VersionedPlanner.
func (p *PrunedPlateaus) AlternativesVersioned(s, t graph.NodeID) ([]path.Path, weights.Version, error) {
	return p.inner.AlternativesVersioned(s, t)
}
