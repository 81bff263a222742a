// Command altroutes computes alternative routes for a single query with
// all the implemented techniques and prints a comparison: travel time,
// length, stretch, turn count and the Sim(T) of each approach's route set.
//
// Usage:
//
//	altroutes -city Melbourne -s "-37.83,144.95" -t "-37.79,145.02"
//	altroutes -graph net.bin -snode 12 -tnode 988
//
// Either a built-in synthetic city (-city) or a binary road-network file
// written by osm2graph/citygen (-graph) can be used; endpoints are given
// as coordinates (matched to the nearest vertex) or as vertex IDs.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/spatial"
	"repro/internal/traffic"
	"repro/internal/weights"
)

func main() {
	city := flag.String("city", "Melbourne", "synthetic city profile (Melbourne, Dhaka, Copenhagen)")
	graphPath := flag.String("graph", "", "binary road-network file (overrides -city)")
	seed := flag.Int64("seed", 2022, "generation seed for -city")
	sCoord := flag.String("s", "", "source as lat,lon")
	tCoord := flag.String("t", "", "target as lat,lon")
	sNode := flag.Int("snode", -1, "source vertex ID (alternative to -s)")
	tNode := flag.Int("tnode", -1, "target vertex ID (alternative to -t)")
	k := flag.Int("k", core.DefaultK, "routes per approach")
	withYen := flag.Bool("yen", false, "also run Yen's k-shortest paths baseline")
	geojsonOut := flag.String("geojson", "", "write all routes as GeoJSON to this file")
	plannerOpts := core.PlannerFlags(flag.CommandLine, core.TreeDijkstra)
	trafficStep := flag.Int("traffic-step", 0, "rush-hour step of the commercial provider's private weights (0 = the study's base congestion field)")
	flag.Parse()

	opts, err := plannerOpts()
	if err == nil {
		opts.K = *k
		err = run(*city, *graphPath, *seed, *sCoord, *tCoord, *sNode, *tNode, *withYen, *geojsonOut, opts, *trafficStep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "altroutes:", err)
		os.Exit(1)
	}
}

func run(city, graphPath string, seed int64, sCoord, tCoord string, sNode, tNode int, withYen bool, geojsonOut string, opts core.Options, trafficStep int) error {
	var g *graph.Graph
	var err error
	if graphPath != "" {
		g, err = graph.LoadFile(graphPath)
	} else {
		var profile citygen.Profile
		profile, err = citygen.ProfileByName(city)
		if err == nil {
			g, err = profile.Generate(seed)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("Network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	s, err := resolveEndpoint(g, sCoord, sNode, "source")
	if err != nil {
		return err
	}
	t, err := resolveEndpoint(g, tCoord, tNode, "target")
	if err != nil {
		return err
	}
	fmt.Printf("Query: %d %v -> %d %v\n\n", s, g.Point(s), t, g.Point(t))

	// The provider's private metric comes from the deterministic rush-hour
	// sequence; -traffic-step picks how far into the cycle it plans
	// (step 0 reproduces the study's static congestion field). Comparing
	// runs across steps shows the Fig. 4 rank flips live.
	seq := traffic.NewSequence(g, traffic.DefaultModel(uint64(seed)*2654435761+1), 0)
	private := seq.WeightsAt(trafficStep)
	if trafficStep != 0 {
		fmt.Printf("Commercial provider planning on rush-hour step %d of %d\n\n", trafficStep, seq.Period())
	}
	study := core.NewStudyPlanners(g, opts, weights.Pin(private))
	planners := study[:]
	if withYen {
		planners = append(planners, core.NewYen(g, opts))
	}
	fc := geojson.NewFeatureCollection()
	for _, pl := range planners {
		routes, err := pl.Alternatives(s, t)
		if err != nil {
			fmt.Printf("%-14s error: %v\n", pl.Name(), err)
			continue
		}
		fastest := routes[0].TimeS
		fmt.Printf("%-14s Sim(T) = %.3f\n", pl.Name(), path.SimT(g, routes))
		for i, r := range routes {
			fmt.Printf("  route %d: %5.1f min  %6.2f km  stretch %.2f  %2d turns\n",
				i+1, r.TimeS/60, r.LengthM/1000, path.Stretch(r, fastest), path.TurnCount(g, r, 45))
		}
		fmt.Println()
		fc.AddRouteSet(g, pl.Name(), routes)
	}
	if geojsonOut != "" {
		f, err := os.Create(geojsonOut)
		if err != nil {
			return err
		}
		if err := fc.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote routes as GeoJSON to %s\n", geojsonOut)
	}
	return nil
}

func resolveEndpoint(g *graph.Graph, coord string, node int, what string) (graph.NodeID, error) {
	if node >= 0 {
		if node >= g.NumNodes() {
			return 0, fmt.Errorf("%s vertex %d out of range (graph has %d)", what, node, g.NumNodes())
		}
		return graph.NodeID(node), nil
	}
	if coord == "" {
		return 0, fmt.Errorf("provide the %s as -%c lat,lon or -%cnode ID", what, what[0], what[0])
	}
	p, err := geo.ParsePoint(coord)
	if err != nil {
		return 0, fmt.Errorf("parsing %s: %w", what, err)
	}
	idx := spatial.NewIndex(g, 16)
	v, d := idx.Nearest(p)
	fmt.Printf("Matched %s %v to vertex %d (%.0f m away)\n", what, p, v, d)
	return v, nil
}
