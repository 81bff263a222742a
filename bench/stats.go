package main

import (
	"math"
	"sort"
	"time"
)

// subWindows is how many equal parts a measured window is split into.
// Every timing metric is computed per part and reported as the quiet
// quartile of the parts' values (see quietQuartile).
const subWindows = 12

// tailSamples is how many samples must lie beyond a percentile for it to
// be reported at all.
const tailSamples = 10

// sample is one completed request of the measured window.
type sample struct {
	end time.Duration // completion time since the window opened
	lat time.Duration
}

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples
// (0.9 × 100 must be 90, whatever the floating-point product says).
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// hasTail reports whether at least tailSamples samples lie beyond the
// p-quantile of n samples.
func hasTail(n int, p float64) bool {
	return n-rank(n, p) >= tailSamples
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// partOf returns the sub-window a sample completed in, -1 when it
// completed outside the window.
func partOf(s sample, window time.Duration) int {
	i := int(int64(s.end) * subWindows / int64(window))
	if s.end < 0 || i >= subWindows {
		return -1
	}
	return i
}

// partCounts returns how many samples completed in each sub-window.
func partCounts(samples []sample, window time.Duration) (counts [subWindows]int) {
	for _, s := range samples {
		if i := partOf(s, window); i >= 0 {
			counts[i]++
		}
	}
	return counts
}

// quietQuartile returns the value at the edge of the best quarter of the
// parts' values: the lower quartile of a metric that is better lower,
// the upper quartile of one that is better higher (nearest rank).
//
// What disturbs a run on a shared box — a neighbour's burst, a stolen
// core — only ever makes a part slower, for seconds at a time. The median
// of the parts moves as soon as half of them are hit; the quiet quartile
// stays where it is until three quarters are, and over undisturbed runs
// the two repeat equally well (README: "Why these bounds"). It reads a
// few per cent better than the median, by the same amount on every run.
func quietQuartile(vals []float64, better string) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if better == "higher" {
		return s[len(s)-max(rank(len(s), 0.25), 1)]
	}
	return s[max(rank(len(s), 0.25), 1)-1]
}

// windowPercentile splits the samples of a window into subWindows equal
// parts by completion time and returns the quiet quartile of the parts'
// p-quantile latencies in milliseconds. ok is false when some part has
// fewer than tailSamples samples beyond the quantile.
func windowPercentile(samples []sample, window time.Duration, p float64) (ms float64, ok bool) {
	parts := make([][]float64, subWindows)
	for _, s := range samples {
		i := partOf(s, window)
		if i < 0 {
			continue
		}
		parts[i] = append(parts[i], float64(s.lat)/float64(time.Millisecond))
	}
	vals := make([]float64, 0, subWindows)
	ok = true
	for _, part := range parts {
		if !hasTail(len(part), p) {
			ok = false
		}
		if len(part) == 0 {
			continue
		}
		sort.Float64s(part)
		vals = append(vals, percentile(part, p))
	}
	return quietQuartile(vals, "lower"), ok
}

// percentileOf is percentile on an unsorted slice of durations, in the
// given unit.
func percentileOf(d []time.Duration, p float64, unit time.Duration) float64 {
	s := make([]float64, len(d))
	for i, v := range d {
		s[i] = float64(v) / float64(unit)
	}
	sort.Float64s(s)
	return percentile(s, p)
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run noise measure the comparison uses
// (quartiles by the exclusive method, as Python's statistics.quantiles).
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}

// modeOf reports which class of a mixed workload owns the q-quantile of
// the pooled latencies: the class holding most of the samples within
// ten points of cumulative share on either side of the quantile, and
// that share. A quantile that sits on the boundary between two classes
// moves when their shares do, not when the server does.
func modeOf(byClass map[string][]float64, q float64) (class string, share float64) {
	type tagged struct {
		v     float64
		class string
	}
	var all []tagged
	for c, vals := range byClass {
		for _, v := range vals {
			all = append(all, tagged{v, c})
		}
	}
	if len(all) == 0 {
		return "", 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	lo := int(math.Max(0, q-0.10) * float64(len(all)))
	hi := int(math.Min(1, q+0.10) * float64(len(all)))
	count := map[string]int{}
	for _, t := range all[lo:hi] {
		count[t.class]++
	}
	for c, n := range count {
		if s := float64(n) / float64(hi-lo); s > share {
			class, share = c, s
		}
	}
	return class, share
}
