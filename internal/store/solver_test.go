package store

import (
	"fmt"
	"testing"

	"sara/internal/partition"
)

// TestSolverResultsShareTheMemoryBound: solver results are ordinary records
// of the memory tier, so a memory-only store holds at most memCap of them
// and drops the oldest first, and the solver counters still count each
// lookup.
func TestSolverResultsShareTheMemoryBound(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	res := &partition.Result{Assign: []int{0, 1}, NumParts: 2, Algo: "solver"}
	for i := 0; i <= memCap; i++ {
		s.StoreResult(fmt.Sprint("inst", i), res)
	}
	if r, ok := s.LookupResult("inst0"); ok {
		t.Fatalf("the oldest of %d results is still held: %+v", memCap+1, r)
	}
	if _, ok := s.LookupResult(fmt.Sprint("inst", memCap)); !ok {
		t.Fatal("the newest result missed")
	}
	if st := s.Stats(); st.SolverHits != 1 || st.SolverMiss != 1 || st.MemEntries != memCap {
		t.Errorf("%d hits, %d misses, %d entries in memory; want 1, 1, %d", st.SolverHits, st.SolverMiss, st.MemEntries, memCap)
	}
}
