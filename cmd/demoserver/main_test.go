package main

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simstudy"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from the dijkstra run")

// plannerOptions parses args through the planner flags the demoserver
// registers.
func plannerOptions(t *testing.T, args ...string) core.Options {
	t.Helper()
	fs := flag.NewFlagSet("demoserver", flag.ContinueOnError)
	opts := core.PlannerFlags(fs, defaultTrees)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o, err := opts()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestDefaultPlannerOptions pins the configuration the demoserver serves
// with no planner flags. The benchmark rebuilds exactly these options
// in-process and aborts on any byte of difference from the child server.
func TestDefaultPlannerOptions(t *testing.T) {
	want := core.Options{TreeBackend: core.TreeCHAuto, Hierarchy: core.HierarchyCCH, Order: core.OrderFlow, Query: core.QueryElimTree}
	if got := plannerOptions(t); got != want {
		t.Fatalf("default planner options = %+v, want %+v", got, want)
	}
}

// TestPaperTablesGolden replays the 10% schedule at seed 2022 — what
// `userstudy -seed 2022 -scale 0.1` prints — on the study the demoserver
// builds, under both tree backends, and compares Table I, the ANOVA
// reports and Table II to the committed golden file. A change that moves
// the paper's tables shows up here; rerun with -update only when it is
// meant to.
func TestPaperTablesGolden(t *testing.T) {
	const seed = 2022
	golden := filepath.Join("testdata", "paper_tables.golden")
	for _, trees := range []string{"dijkstra", "ch-auto"} {
		t.Run(trees, func(t *testing.T) {
			study, err := eval.NewStudyOpts(seed, plannerOptions(t, "-trees", trees))
			if err != nil {
				t.Fatal(err)
			}
			if err := study.Run(simstudy.ScaledSchedule(0.1), simstudy.DefaultRaterParams(), seed); err != nil {
				t.Fatal(err)
			}
			cities := study.CityNames()
			var sb strings.Builder
			for _, table := range []string{
				eval.FormatTableI(study.Records, cities),
				eval.ANOVAReport(study.Records, cities),
				eval.RMAnovaReport(study.Records, cities),
				eval.FormatTableII(study.Records, cities),
			} {
				sb.WriteString(table + "\n")
			}
			got := sb.String()
			if *update && trees == "dijkstra" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("paper tables under -trees %s differ from %s:\n%s", trees, golden, got)
			}
		})
	}
}

// TestServerTimeouts pins the connection timeouts the demoserver serves
// under: all four set, and each far above what the benchmark needs (a
// request takes milliseconds; its keep-alive connection spans a 24 s
// measurement window).
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	got := [4]time.Duration{srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout}
	want := [4]time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second, 5 * time.Minute}
	if got != want {
		t.Fatalf("timeouts (read header, read, write, idle) = %v, want %v", got, want)
	}
	if srv.IdleTimeout < 2*24*time.Second {
		t.Errorf("idle timeout %v would close a benchmark's keep-alive connection", srv.IdleTimeout)
	}
}
