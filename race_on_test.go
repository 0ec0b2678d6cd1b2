//go:build race

package repro

// raceEnabled reports a build under the race detector, whose own
// allocations land inside testing.AllocsPerRun's window: an exact
// allocation bound holds only without it.
const raceEnabled = true
