package store_test

import (
	"bytes"
	"testing"

	"sara/internal/ir"
	"sara/internal/store"
	"sara/internal/workloads"
)

// snapshotFuzzProgram is the program FuzzSnapshot decodes against: ms par 4
// for the unplaced design, bs par 4 for the placed one, both at scale 16
// under the default traversal partitioning and merging.
func snapshotFuzzProgram(placed bool) *ir.Program {
	name := "ms"
	if placed {
		name = "bs"
	}
	w, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return w.Build(workloads.Params{Par: 4, Scale: 16})
}

// FuzzSnapshot feeds arbitrary bytes to DecodeSnapshot on its own, past the
// artifacts FuzzArtifactEnvelope reaches. The properties: decoding never
// panics, and every snapshot it accepts re-encodes to exactly its bytes
// (EncodeSnapshot∘DecodeSnapshot = id), so one design has one encoding and
// one content address. The seed corpus in testdata/fuzz/FuzzSnapshot (the
// snapshot after every stage of both designs snapshotFuzzProgram names) runs
// under plain go test; explore with
//
//	go test -run '^$' -fuzz FuzzSnapshot -fuzztime 30s ./internal/store/
func FuzzSnapshot(f *testing.F) {
	progs := [2]*ir.Program{snapshotFuzzProgram(false), snapshotFuzzProgram(true)}
	f.Fuzz(func(t *testing.T, placed bool, data []byte) {
		prog := progs[0]
		if placed {
			prog = progs[1]
		}
		s, err := store.DecodeSnapshot(data, prog)
		if err != nil {
			return
		}
		if again := store.EncodeSnapshot(s); !bytes.Equal(again, data) {
			t.Fatalf("an accepted snapshot re-encodes to %d other bytes (%d given)", len(again), len(data))
		}
	})
}
