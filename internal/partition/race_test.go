//go:build race

package partition_test

// raceEnabled reports that the race detector is active. The solver starts
// no goroutine, so the detector has nothing of its own to check here; the
// workload sweep drops its largest search under it, since the instrumented
// solver runs several times slower than native.
const raceEnabled = true
