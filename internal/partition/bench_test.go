package partition_test

import (
	"fmt"
	"testing"

	"sara/internal/core"
	"sara/internal/workloads"
)

// BenchmarkSolver times one solver-partitioned, solver-merged compile of the
// two largest designs of bench's `solver` workload under its configuration
// (gap 0.15, 60 nodes a search; placement off, so the time is
// partition + merge, i.e. mip and lp). It reports two figures: ms/compile,
// the wall time of one whole compile, repeated instances answered by the
// passes' memo included; and us/node, that time over the branch-and-bound
// nodes the compile explored — the nodes of instances it solved, not those a
// memo hit reports (c.MIPNodes() counts both), so a memo that skips more
// repeats does not read as faster nodes. It is the solver's profiling entry
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
				cfg := solverConfig(60)
				part, merged := newCounting(), newCounting()
				cfg.Partition.Cache, cfg.Merge.Cache = part, merged
				if _, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), cfg); err != nil {
					b.Fatal(err)
				}
				nodes += part.nodes + merged.nodes
			}
			us := float64(b.Elapsed().Microseconds())
			b.ReportMetric(us/1e3/float64(b.N), "ms/compile")
			b.ReportMetric(us/float64(nodes), "us/node")
		})
	}
}
