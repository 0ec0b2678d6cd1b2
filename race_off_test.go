//go:build !race

package repro

// raceEnabled reports a build under the race detector; see race_on_test.go.
const raceEnabled = false
