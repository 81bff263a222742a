package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/sp"
	"repro/internal/traffic"
)

// Property tests: every planner must uphold the Planner contract on
// arbitrary (possibly disconnected, one-way-heavy) random road networks,
// not just the curated grid city.

func randomRoadNetwork(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	o := geo.Point{Lat: 23.8, Lon: 90.4}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Offset(o, rng.Float64()*6000, rng.Float64()*6000))
	}
	m := n * 5 / 2
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(graph.EdgeSpec{
			From:     u,
			To:       v,
			Class:    graph.RoadClass(rng.Intn(int(graph.Service) + 1)),
			SpeedKmh: 15 + rng.Float64()*85,
			Lanes:    1 + rng.Intn(3),
			TwoWay:   rng.Intn(4) > 0, // 25% one-way
		})
	}
	return b.Build()
}

// randomPlanarNetwork is a tie-free street grid: rows×cols intersections
// jittered off a 250 m lattice, joined to their lattice neighbours at
// continuous random speeds (a quarter of the streets one-way). Unlike the
// random chords of randomRoadNetwork, travel times track distance, so a
// short pair's ellipse covers a corner of the city — where TreeCHAuto
// restricts its sweeps.
func randomPlanarNetwork(seed int64, rows, cols int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(rows*cols, 0)
	o := geo.Point{Lat: 23.8, Lon: 90.4}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddNode(geo.Offset(o, (float64(r)+0.6*rng.Float64())*250, (float64(c)+0.6*rng.Float64())*250))
		}
	}
	street := func(u, v int) {
		b.AddEdge(graph.EdgeSpec{
			From:     graph.NodeID(u),
			To:       graph.NodeID(v),
			Class:    graph.Residential,
			SpeedKmh: 30 + rng.Float64()*20,
			Lanes:    1 + rng.Intn(2),
			TwoWay:   rng.Intn(4) > 0,
		})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				street(r*cols+c, r*cols+c+1)
			}
			if r+1 < rows {
				street(r*cols+c, (r+1)*cols+c)
			}
		}
	}
	return b.Build()
}

func TestPlannerContractOnRandomNetworks(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomRoadNetwork(seed, 120)
		w := g.CopyWeights()
		private := traffic.Apply(g, traffic.DefaultModel(uint64(seed)+5))
		planners := []Planner{
			NewPenalty(g, Options{}),
			NewPlateaus(g, Options{}),
			NewDissimilarity(g, Options{}),
			NewCommercial(g, private, Options{}),
			NewESX(g, Options{}),
			NewPareto(g, Options{}),
			NewYen(g, Options{}),
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for q := 0; q < 12; q++ {
			s := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes()))
			if s == dst {
				continue
			}
			_, fastest := sp.ShortestPath(g, w, s, dst)
			reachable := !math.IsInf(fastest, 1)
			for _, pl := range planners {
				routes, err := pl.Alternatives(s, dst)
				if !reachable {
					if err != ErrNoRoute {
						t.Fatalf("seed %d %s: unreachable pair gave %v", seed, pl.Name(), err)
					}
					continue
				}
				// Commercial plans on private data: reachability can
				// differ only if traffic weights disconnect pairs, which
				// multiplicative weights cannot do.
				if err != nil {
					t.Fatalf("seed %d %s (%d->%d): %v", seed, pl.Name(), s, dst, err)
				}
				if len(routes) == 0 || len(routes) > DefaultK+2 {
					t.Fatalf("seed %d %s: %d routes", seed, pl.Name(), len(routes))
				}
				for i, r := range routes {
					// Contiguity and endpoints.
					cur := s
					for _, e := range r.Edges {
						ed := g.Edge(e)
						if ed.From != cur {
							t.Fatalf("seed %d %s route %d: discontinuous", seed, pl.Name(), i)
						}
						cur = ed.To
					}
					if cur != dst {
						t.Fatalf("seed %d %s route %d: ends at %d", seed, pl.Name(), i, cur)
					}
					// No route may beat the true fastest time.
					if r.TimeS < fastest-1e-6 {
						t.Fatalf("seed %d %s route %d: time %f below optimum %f",
							seed, pl.Name(), i, r.TimeS, fastest)
					}
					// Duplicates are forbidden.
					for j := 0; j < i; j++ {
						if path.Equal(routes[i], routes[j]) {
							t.Fatalf("seed %d %s: duplicate routes %d/%d", seed, pl.Name(), i, j)
						}
					}
				}
			}
		}
	}
}

func TestPlannersDeterministic(t *testing.T) {
	g := randomRoadNetwork(3, 100)
	private := traffic.Apply(g, traffic.DefaultModel(8))
	mk := func() []Planner {
		return []Planner{
			NewPenalty(g, Options{}),
			NewPlateaus(g, Options{}),
			NewDissimilarity(g, Options{}),
			NewCommercial(g, private, Options{}),
		}
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(77))
	for q := 0; q < 10; q++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		for i := range a {
			r1, err1 := a[i].Alternatives(s, dst)
			r2, err2 := b[i].Alternatives(s, dst)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: nondeterministic error", a[i].Name())
			}
			if err1 != nil {
				continue
			}
			if len(r1) != len(r2) {
				t.Fatalf("%s: nondeterministic route count %d vs %d", a[i].Name(), len(r1), len(r2))
			}
			for j := range r1 {
				if !path.Equal(r1[j], r2[j]) {
					t.Fatalf("%s: nondeterministic route %d", a[i].Name(), j)
				}
			}
		}
	}
}
