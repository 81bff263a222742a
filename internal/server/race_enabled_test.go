//go:build race

package server

// raceEnabled reports that the race detector is active; its
// instrumentation can allocate, so allocation-count assertions are
// skipped.
const raceEnabled = true
