package eval

import (
	"fmt"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/workloads"
)

// AlgoResult is one cell of the Fig 11 comparison: partitioning+merging
// quality (physical units) and compile time for one algorithm on one
// workload.
type AlgoResult struct {
	Workload string
	Algo     string
	PUs      int
	// Normalized is PUs divided by the best result across algorithms for
	// this workload (Fig 11a's normalized #PU; 1.0 = best).
	Normalized float64
	Compile    time.Duration
}

// fig11Algos are the compared configurations: the four traversal orders and
// the MIP solver at the paper's 15% optimality gap.
var fig11Algos = []struct {
	name string
	algo partition.Algorithm
}{
	{"bfs-fwd", partition.AlgoBFSForward},
	{"bfs-bwd", partition.AlgoBFSBackward},
	{"dfs-fwd", partition.AlgoDFSForward},
	{"dfs-bwd", partition.AlgoDFSBackward},
	{"solver", partition.AlgoSolver},
}

// Fig11 compares traversal- and solver-based partitioning/merging across the
// given workloads. Scale shrinks the problem so the exact solver's
// branch-and-bound remains tractable in CI; the paper's Gurobi runs take
// hours to days on the full graphs (§IV-B).
func Fig11(names []string, par, scale int, spec *arch.Spec) ([]AlgoResult, string, error) {
	var out []AlgoResult
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		var rs []AlgoResult
		best := 1 << 30
		for _, a := range fig11Algos {
			cfg := core.DefaultConfig()
			cfg.Spec = spec
			cfg.SkipPlace = true
			cfg.Partition.Algo = a.algo
			cfg.Merge.Algo = a.algo
			if a.algo == partition.AlgoSolver {
				cfg.UseSolver(partition.DefaultGap)
				cfg.Partition.MaxNodes = 800
				cfg.Partition.TimeLimit = 2 * time.Second
				cfg.Merge.MaxNodes = 800
				cfg.Merge.TimeLimit = 2 * time.Second
			}
			prog := w.Build(workloads.Params{Par: par, Scale: scale})
			t0 := time.Now()
			c, err := core.Compile(prog, cfg)
			el := time.Since(t0)
			if err != nil {
				return nil, "", fmt.Errorf("%s %s: %w", name, a.name, err)
			}
			pus := c.Resources().Total
			if pus < best {
				best = pus
			}
			rs = append(rs, AlgoResult{Workload: name, Algo: a.name, PUs: pus, Compile: el})
		}
		for i := range rs {
			rs[i].Normalized = float64(rs[i].PUs) / float64(best)
		}
		out = append(out, rs...)
	}
	return out, renderFig11(out), nil
}

func renderFig11(rs []AlgoResult) string {
	var rows [][]string
	for _, r := range rs {
		rows = append(rows, []string{
			r.Workload, r.Algo,
			fmt.Sprintf("%d", r.PUs),
			fmt.Sprintf("%.2f", r.Normalized),
			r.Compile.Round(time.Millisecond).String(),
		})
	}
	return "Fig 11 — traversal vs solver partitioning+merging (normalized #PU; compile time)\n" +
		table([]string{"workload", "algorithm", "PUs", "normalized", "compile"}, rows)
}
