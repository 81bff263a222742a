// Command analyze applies the paper's §IV-A statistical analysis to the
// ratings collected by the demo server: per-approach mean and standard
// deviation (overall, residents, non-residents, per city) and the one-way
// ANOVA testing whether the four approaches differ.
//
// Usage:
//
//	analyze -in ratings.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/server"
)

func main() {
	in := flag.String("in", "ratings.json", "ratings file written by demoserver")
	flag.Parse()

	subs, err := server.LoadRatings(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	fmt.Print(server.AnalyzeRatings(subs))
}
