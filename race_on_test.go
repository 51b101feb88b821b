//go:build race

package repro

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation ceilings are skipped under it.
const raceEnabled = true
