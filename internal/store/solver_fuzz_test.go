package store

import (
	"bytes"
	"testing"
)

// FuzzSolverResult feeds arbitrary bytes to the solver record's reader, the
// one LookupResult runs on every record it loads from disk. The properties:
// decoding never panics, and every record it accepts re-encodes to exactly
// its bytes. The seed corpus in testdata/fuzz/FuzzSolverResult (a record, one
// with no assignment, one with a negative count and a truncated one) runs
// under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzSolverResult -fuzztime 30s ./internal/store/
func FuzzSolverResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := read(data, nil, walkSolverResult)
		if err != nil {
			return
		}
		if again := write(r, walkSolverResult); !bytes.Equal(again, data) {
			t.Fatalf("an accepted solver record re-encodes to %d other bytes (%d given)", len(again), len(data))
		}
	})
}
