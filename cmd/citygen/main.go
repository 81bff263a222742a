// Command citygen generates a synthetic study city and writes it as a
// binary road-network file, OSM XML, or both. The synthetic networks stand
// in for the paper's Geofabrik OSM extracts of Melbourne, Dhaka and
// Copenhagen (the internal/citygen package doc gives the substitution and
// each profile).
//
// Usage:
//
//	citygen -city Dhaka -seed 7 -out dhaka.bin -xml dhaka.osm
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/citygen"
	"repro/internal/osm"
)

func main() {
	city := flag.String("city", "Melbourne", "city profile (Melbourne, Dhaka, Copenhagen)")
	seed := flag.Int64("seed", 2022, "generation seed")
	out := flag.String("out", "", "binary road-network output path")
	xmlOut := flag.String("xml", "", "OSM XML output path")
	flag.Parse()

	if err := run(*city, *seed, *out, *xmlOut); err != nil {
		fmt.Fprintln(os.Stderr, "citygen:", err)
		os.Exit(1)
	}
}

func run(city string, seed int64, out, xmlOut string) error {
	profile, err := citygen.ProfileByName(city)
	if err != nil {
		return err
	}
	if out == "" && xmlOut == "" {
		return fmt.Errorf("nothing to do: pass -out and/or -xml")
	}
	data := profile.EmitData(seed)
	fmt.Printf("%s (seed %d): %d OSM nodes, %d ways\n", city, seed, len(data.Nodes), len(data.Ways))

	if xmlOut != "" {
		f, err := os.Create(xmlOut)
		if err != nil {
			return err
		}
		if err := data.WriteXML(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", xmlOut, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote OSM XML to %s\n", xmlOut)
	}
	if out != "" {
		g, err := osm.BuildGraph(data, nil)
		if err != nil {
			return err
		}
		if err := g.SaveFile(out); err != nil {
			return err
		}
		fmt.Printf("wrote road network (%d nodes, %d edges) to %s\n", g.NumNodes(), g.NumEdges(), out)
	}
	return nil
}
