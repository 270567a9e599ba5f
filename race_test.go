//go:build race

package repro

// raceEnabled reports that the race detector is active: allocation-count
// pins are skipped under it, because instrumentation adds allocations the
// production build does not have.
const raceEnabled = true
