//go:build !race

package sim_test

// raceEnabled reports that the race detector is active; see race_test.go.
const raceEnabled = false
