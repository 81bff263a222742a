// Command userstudy reruns the paper's user study end to end: it generates
// the three synthetic city networks, replays the 520-response schedule of
// Table I through the simulated participants, and prints Table I (mean
// ratings + ANOVA, §IV-A) and Table II (route similarity, §IV-B).
//
// Usage:
//
//	userstudy [-seed N] [-scale F] [-table 1|2|all] [-trees dijkstra|ch-auto] [-hierarchy cch|cch-perfect]
//
// -scale 0.1 runs a 10% schedule for a quick look; the default replays the
// full 520 responses.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/simstudy"
)

func main() {
	seed := flag.Int64("seed", 2022, "seed for networks, traffic and participants")
	scale := flag.Float64("scale", 1.0, "fraction of the paper's 520-response schedule to run")
	table := flag.String("table", "all", "which table to print: 1, 2 or all")
	ablation := flag.Bool("ablation", false, "also print the parameter/refinement ablation table")
	matrix := flag.Bool("matrix", false, "also print the many-to-many matrix ablation (shared-selection tables vs k\u00b2 point-to-point)")
	csvOut := flag.String("csv", "", "also write the raw study records to this CSV file")
	plannerOpts := core.PlannerFlags(flag.CommandLine, core.TreeDijkstra)
	flag.Parse()

	opts, err := plannerOpts()
	if err == nil {
		err = run(*seed, *scale, *table, *ablation, *matrix, *csvOut, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "userstudy:", err)
		os.Exit(1)
	}
}

func run(seed int64, scale float64, table string, ablation, matrix bool, csvOut string, opts core.Options) error {
	if table != "1" && table != "2" && table != "all" {
		return fmt.Errorf("invalid -table %q (want 1, 2 or all)", table)
	}
	start := time.Now()
	fmt.Printf("Generating city networks (seed %d, %s trees, %s hierarchy, %s order)...\n", seed, opts.TreeBackend, opts.Hierarchy, opts.Order)
	study, err := eval.NewStudyOpts(seed, opts)
	if err != nil {
		return err
	}
	for _, name := range study.CityNames() {
		c := study.Cities[name]
		fmt.Printf("  %-11s %5d nodes, %5d edges\n", name, c.Graph.NumNodes(), c.Graph.NumEdges())
	}

	sched := simstudy.PaperSchedule()
	if scale < 1 {
		sched = simstudy.ScaledSchedule(scale)
	}
	fmt.Printf("Replaying %d responses...\n", simstudy.TotalResponses(sched))
	if err := study.Run(sched, simstudy.DefaultRaterParams(), seed); err != nil {
		return err
	}
	fmt.Printf("Done in %.1fs.\n\n", time.Since(start).Seconds())

	cities := study.CityNames()
	if table == "1" || table == "all" {
		fmt.Println(eval.FormatTableI(study.Records, cities))
		fmt.Println(eval.ANOVAReport(study.Records, cities))
		fmt.Println(eval.RMAnovaReport(study.Records, cities))
	}
	if table == "2" || table == "all" {
		fmt.Println(eval.FormatTableII(study.Records, cities))
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		if err := eval.WriteRecordsCSV(f, study.Records); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", len(study.Records), csvOut)
	}
	if ablation {
		const numQueries = 25
		city := study.Cities["Melbourne"]
		rows, err := city.RunAblation(eval.DefaultAblationConfigs(city), numQueries, seed)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatAblation("Melbourne", rows, numQueries))
	}
	if matrix {
		city := study.Cities["Melbourne"]
		rows, err := city.RunMatrixAblation([]int{4, 16, 64}, seed)
		if err != nil {
			return err
		}
		fmt.Println(eval.FormatMatrixAblation("Melbourne", rows, city.Matrix.HierarchyStatus()))
	}
	return nil
}
