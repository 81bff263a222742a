// Quickstart: build a small road network, run the three published
// alternative-route techniques the paper implements (Penalty, Plateaus,
// Dissimilarity) on one query, and print the resulting routes with the
// paper's quality measures.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/path"
	"repro/internal/spatial"
)

func main() {
	// 1. Generate a Melbourne-like road network (a stand-in for the
	//    paper's OSM extract; the internal/citygen package doc says why).
	profile := citygen.Melbourne()
	g, err := profile.Generate(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Road network: %d intersections, %d road segments\n",
		g.NumNodes(), g.NumEdges())

	// 2. Pick a source and a target by coordinates, exactly like a demo
	//    user clicking the map: the spatial index snaps clicks to the
	//    nearest intersections.
	idx := spatial.NewIndex(g, 16)
	s, _ := idx.Nearest(profile.Center) // city center
	bb := g.BBox()
	northEast := geo.Point{
		Lat: bb.MinLat + 0.85*(bb.MaxLat-bb.MinLat),
		Lon: bb.MinLon + 0.85*(bb.MaxLon-bb.MinLon),
	}
	t, _ := idx.Nearest(northEast) // a suburb toward the corner
	fmt.Printf("Query: vertex %d -> vertex %d\n\n", s, t)

	// 3. Run each technique with the paper's parameters (k=3, penalty
	//    factor 1.4, upper bound 1.4, θ=0.5 — the Options zero value).
	planners := []core.Planner{
		core.NewPlateaus(g, core.Options{}),
		core.NewDissimilarity(g, core.Options{}),
		core.NewPenalty(g, core.Options{}),
	}
	for _, pl := range planners {
		routes, err := pl.Alternatives(s, t)
		if err != nil {
			log.Fatalf("%s: %v", pl.Name(), err)
		}
		fmt.Printf("%s returned %d routes (Sim(T) = %.3f):\n",
			pl.Name(), len(routes), path.SimT(g, routes))
		for i, r := range routes {
			fmt.Printf("  %d. %5.1f min over %5.2f km (stretch %.2f)\n",
				i+1, r.TimeS/60, r.LengthM/1000, path.Stretch(r, routes[0].TimeS))
		}
		fmt.Println()
	}

	// 4. The graph can be saved and reloaded in the binary format used by
	//    the CLI tools.
	if err := g.SaveFile("/tmp/quickstart-melbourne.bin"); err != nil {
		log.Fatal(err)
	}
	g2, err := graph.LoadFile("/tmp/quickstart-melbourne.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Round-tripped network file: %d nodes, %d edges\n",
		g2.NumNodes(), g2.NumEdges())
}
