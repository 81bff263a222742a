// Command osm2graph is the paper's Road Network Constructor as a CLI: it
// parses an OSM XML extract, optionally clips it to a rectangular area,
// builds the routable road network (travel time = length/maxspeed, ×1.3 on
// non-freeways, largest connected component only) and writes it in the
// binary road-network format.
//
// Usage:
//
//	osm2graph -in melbourne.osm -out melbourne.bin \
//	          -bbox "-37.95,144.80,-37.65,145.15"
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/geo"
	"repro/internal/osm"
)

func main() {
	in := flag.String("in", "", "input OSM XML file")
	out := flag.String("out", "", "output binary road-network file")
	bboxStr := flag.String("bbox", "", "optional clip rectangle: minLat,minLon,maxLat,maxLon")
	flag.Parse()

	if err := run(*in, *out, *bboxStr); err != nil {
		fmt.Fprintln(os.Stderr, "osm2graph:", err)
		os.Exit(1)
	}
}

func run(in, out, bboxStr string) error {
	if in == "" || out == "" {
		return fmt.Errorf("both -in and -out are required")
	}
	var bbox *geo.BBox
	if bboxStr != "" {
		b, err := geo.ParseBBox(bboxStr)
		if err != nil {
			return fmt.Errorf("parsing -bbox: %w", err)
		}
		if b.MinLat >= b.MaxLat || b.MinLon >= b.MaxLon {
			return fmt.Errorf("-bbox %q is empty or inverted", bboxStr)
		}
		bbox = &b
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := osm.Parse(f)
	if err != nil {
		return err
	}
	fmt.Printf("parsed %d nodes, %d ways from %s\n", len(data.Nodes), len(data.Ways), in)
	g, err := osm.BuildGraph(data, bbox)
	if err != nil {
		return err
	}
	if err := g.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote road network (%d nodes, %d edges, %.1f km of road) to %s\n",
		g.NumNodes(), g.NumEdges(), g.TotalLengthM()/1000, out)
	return nil
}
