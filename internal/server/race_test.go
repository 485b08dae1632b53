//go:build race

package server

// raceEnabled reports that the race detector is active. It makes sync.Pool
// drop pooled values at random and allocates on its own account, so
// allocation counts hold only without it.
const raceEnabled = true
