package partition_test

import (
	"fmt"
	"testing"

	"sara/internal/core"
	"sara/internal/workloads"
)

// BenchmarkSolver times one solver-partitioned, solver-merged compile of the
// two largest designs of bench's `solver` workload under its configuration
// (gap 0.15, 60 nodes a search, serial; placement off, so the time is
// partition + merge, i.e. mip and lp). It is the solver's profiling entry
// point:
//
//	go test -run '^$' -bench Solver -cpuprofile cpu.out ./internal/partition/
func BenchmarkSolver(b *testing.B) {
	for _, k := range []struct {
		name       string
		par, scale int
	}{{"rf", 64, 32}, {"ms", 64, 16}} {
		k := k
		b.Run(fmt.Sprintf("%s/p%d", k.name, k.par), func(b *testing.B) {
			w, err := workloads.ByName(k.name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				c, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), solverConfig(1, 60))
				if err != nil {
					b.Fatal(err)
				}
				nodes += c.MIPNodes()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(nodes), "us/node")
		})
	}
}
