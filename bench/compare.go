package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound: not shown unchanged
)

// readDocuments decodes every result document in a file; runs appended
// one after the other make a series.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		err := dec.Decode(&d)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaVersion)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result document", path)
	}
	return docs, nil
}

// values collects one end-to-end metric of one workload over a series.
func values(docs []document, workload, name string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, r := range d.Workloads {
			if m, ok := r.EndToEnd[name]; ok && r.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// judge compares the medians of two series of one metric. worse is how
// much b is worse than a: a share of a's median, or an absolute
// difference for an absolute bound.
func judge(s metricSpec, a, b []float64) (worse, noise float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = mb - ma
	if s.Better == "higher" {
		worse = -worse
	}
	if s.Abs {
		if worse > s.Bound {
			return worse, 0, verdictRegressed
		}
		return worse, 0, verdictOK
	}
	if ma != 0 {
		worse /= math.Abs(ma)
	}
	noise = math.Max(spread(a), spread(b))
	switch {
	case noise > s.Bound && !s.MediansOnly:
		return worse, noise, verdictUnresolved
	case worse > s.Bound:
		return worse, noise, verdictRegressed
	}
	return worse, noise, verdictOK
}

// compareFiles judges series b against series a, one row per workload
// and end-to-end metric, with the bounds of spec.go (which a test pins
// to BENCHMARK.json). It returns the process exit code: 1 when anything
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readDocuments(pathA)
	b, errB := readDocuments(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSeries(w, a, b)
}

func compareSeries(w io.Writer, a, b []document) int {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (median of %d)\tb (median of %d)\tworse by\tspread\tbound\tverdict\n", len(a), len(b))
	code := 0
	for _, wl := range workloadSpecs {
		for _, s := range endToEndSpecs {
			if s.Better == "" {
				continue // reported, never judged
			}
			va, vb := values(a, wl.Name, s.Name), values(b, wl.Name, s.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // does not exist on this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\tmissing on one side\n", wl.Name, s.Name)
				code = 1
				continue
			}
			worse, noise, verdict := judge(s, va, vb)
			if verdict == verdictRegressed {
				code = 1
			}
			if s.Abs {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.4g\t-\t+%g abs\t%s\n", wl.Name, s.Name, median(va), median(vb), worse, s.Bound, verdict)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%g%%\t%s\n", wl.Name, s.Name, median(va), median(vb), 100*worse, 100*noise, 100*s.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}
