package eval

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/osm"
	"repro/internal/path"
	"repro/internal/simstudy"
	"repro/internal/traffic"
)

// TestEndToEndPipeline exercises the full stack exactly as the paper's
// system does: generate a city as OSM data, serialize it to OSM XML, parse
// it back through the Road Network Constructor, build the four planners on
// the parsed graph, answer queries, rate them, and run the statistics.
func TestEndToEndPipeline(t *testing.T) {
	// 1. City -> OSM XML -> parse -> graph (the paper's data path).
	profile := citygen.Copenhagen()
	profile.Rows, profile.Cols = 24, 24 // small for test speed
	data := profile.EmitData(5)
	var xmlBuf bytes.Buffer
	if err := data.WriteXML(&xmlBuf); err != nil {
		t.Fatal(err)
	}
	parsed, err := osm.Parse(&xmlBuf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := osm.BuildGraph(parsed, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 2. All planners (studied + related work) answer the same query.
	tw := traffic.Apply(g, traffic.DefaultModel(99))
	planners := []core.Planner{
		core.NewCommercial(g, tw, core.Options{}),
		core.NewPlateaus(g, core.Options{}),
		core.NewDissimilarity(g, core.Options{}),
		core.NewPenalty(g, core.Options{}),
		core.NewESX(g, core.Options{}),
		core.NewPareto(g, core.Options{}),
		core.NewYen(g, core.Options{}),
	}
	rng := rand.New(rand.NewSource(8))
	answered := 0
	for q := 0; q < 10; q++ {
		s := g.NumNodes() / 7 * (q + 1) % g.NumNodes()
		dst := rng.Intn(g.NumNodes())
		if s == dst {
			continue
		}
		for _, pl := range planners {
			routes, err := pl.Alternatives(int32ID(s), int32ID(dst))
			if err == core.ErrNoRoute {
				continue
			}
			if err != nil {
				t.Fatalf("%s on %d->%d: %v", pl.Name(), s, dst, err)
			}
			answered++
			for i, r := range routes {
				if r.Source() != int32ID(s) || r.Target() != int32ID(dst) {
					t.Fatalf("%s route %d endpoints wrong", pl.Name(), i)
				}
			}
			if sim := path.SimT(g, routes); sim < 0 || sim > 1 {
				t.Fatalf("%s Sim(T) out of range: %f", pl.Name(), sim)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no planner answered any query")
	}

	// 3. Study statistics over a mini schedule on the XML-derived city.
	city := &City{
		Profile: profile,
		Graph:   g,
		Public:  g.CopyWeights(),
		Traffic: tw,
	}
	city.Planners = [NumApproaches]core.Planner{
		core.NewCommercial(g, tw, core.Options{}),
		core.NewPlateaus(g, core.Options{}),
		core.NewDissimilarity(g, core.Options{}),
		core.NewPenalty(g, core.Options{}),
	}
	city.Router = core.NewRouter(nil, city.Planners[:])
	recs, err := city.RunCell(simstudy.Cell{City: "Copenhagen", Resident: true, Band: simstudy.Small}, 6,
		simstudy.DefaultRaterParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("records = %d, want 6", len(recs))
	}
	table := FormatTableI(recs, []string{"Copenhagen"})
	if !strings.Contains(table, "Copenhagen") {
		t.Error("table missing city section")
	}

	// 4. Records survive CSV round trip.
	var csvBuf bytes.Buffer
	if err := WriteRecordsCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecordsCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("CSV round trip lost records: %d vs %d", len(back), len(recs))
	}
}

func int32ID(v int) graph.NodeID { return graph.NodeID(v) }
