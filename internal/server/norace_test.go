//go:build !race

package server

// raceEnabled reports that the race detector is active; see race_test.go.
const raceEnabled = false
