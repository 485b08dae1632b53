package core

import (
	"testing"

	"sara/internal/ir"
	"sara/internal/workloads"
)

// benchSink keeps the compiled designs reachable so the compiler cannot drop
// the measured calls.
var benchSink *Compiled

// BenchmarkCompile times cold core.Compile — DefaultConfig: traversal
// partitioning, placement on, no design store — of the 24 designs the bench
// harness's serve-sweep workload serves: mlp, snet, lstm, gda, logreg and
// kmeans at par 16, 32, 64 and 128, scale 16. One op compiles all 24. It is
// the compile path's profiling entry point:
//
//	go test -run '^$' -bench Compile -benchmem -cpuprofile cpu.out ./internal/core/
func BenchmarkCompile(b *testing.B) {
	var progs []*ir.Program
	for _, name := range []string{"mlp", "snet", "lstm", "gda", "logreg", "kmeans"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, par := range []int{16, 32, 64, 128} {
			progs = append(progs, w.Build(workloads.Params{Par: par, Scale: 16}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			c, err := Compile(p, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			benchSink = c
		}
	}
}
