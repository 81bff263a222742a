//go:build race

package ch_test

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so allocation-count assertions are skipped.
const raceEnabled = true
