//go:build race

package sim_test

// raceEnabled reports that the race detector is active. It makes sync.Pool
// drop pooled values at random, so allocation comparisons between two runs
// hold only without it.
const raceEnabled = true
