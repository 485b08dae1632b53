package eval

import (
	"fmt"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/store"
	"sara/internal/workloads"
)

// CompileBenchCase is one workload configuration timed by the compile
// benchmark (cmd/sarabench → BENCH_compile.json).
type CompileBenchCase struct {
	Workload   string
	Par, Scale int
	// Solver selects MIP-based partitioning and merging. Solver cases run
	// twice — the pre-optimization baseline (cold-start LP relaxations)
	// against the optimized path (relaxations warm-started from the parent
	// node's basis), both the same serial branch-and-bound — and report the
	// speedup. Traversal cases run
	// the current path once, for per-stage timing coverage.
	Solver bool
	// MaxNodes bounds every solver invocation. Both legs explore trees of
	// the same bounded size with a generous time limit, so wall-clock
	// differences reflect per-node LP cost, not truncated searches.
	MaxNodes int
}

// CompileStat is one leg's timing: best-of-reps total, with the per-stage
// split and solver node count of the best rep.
type CompileStat struct {
	TotalMS  float64            `json:"total_ms"`
	PhaseMS  map[string]float64 `json:"phase_ms"`
	MIPNodes int                `json:"mip_nodes"`
	PUs      int                `json:"pus"`
}

// CompileBenchRow is one case's result.
type CompileBenchRow struct {
	Workload string `json:"workload"`
	Par      int    `json:"par"`
	Scale    int    `json:"scale"`
	Solver   bool   `json:"solver"`
	// Baseline is only present for solver cases.
	Baseline  *CompileStat `json:"baseline,omitempty"`
	Optimized CompileStat  `json:"optimized"`
	// Speedup is baseline wall-clock over optimized wall-clock (>1 means
	// the warm-started parallel path is faster); zero for traversal cases.
	Speedup float64 `json:"speedup,omitempty"`
}

// compileBenchConfig builds the compiler configuration for one leg.
func compileBenchConfig(cs CompileBenchCase, baseline bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	if !cs.Solver {
		return cfg
	}
	maxNodes := cs.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 250
	}
	cfg.Partition.Algo = partition.AlgoSolver
	cfg.Merge.Algo = partition.AlgoSolver
	cfg.Partition.Gap = 0.15
	cfg.Merge.Gap = 0.15
	cfg.Partition.MaxNodes = maxNodes
	cfg.Merge.MaxNodes = maxNodes
	cfg.Partition.TimeLimit = 10 * time.Minute
	cfg.Merge.TimeLimit = 10 * time.Minute
	if baseline {
		cfg.Partition.ColdLP = true
		cfg.Merge.ColdLP = true
	}
	return cfg
}

// timeCompile compiles the workload reps times and keeps the fastest run.
func timeCompile(w *workloads.Workload, cs CompileBenchCase, baseline bool, reps int) (CompileStat, error) {
	var best time.Duration
	var stat CompileStat
	for r := 0; r < reps; r++ {
		prog := w.Build(workloads.Params{Par: cs.Par, Scale: cs.Scale})
		cfg := compileBenchConfig(cs, baseline)
		t0 := time.Now()
		c, err := core.Compile(prog, cfg)
		el := time.Since(t0)
		if err != nil {
			return CompileStat{}, err
		}
		if best != 0 && el >= best {
			continue
		}
		best = el
		phases := make(map[string]float64, len(c.PhaseTimes))
		for name, d := range c.PhaseTimes {
			phases[name] = float64(d.Nanoseconds()) / 1e6
		}
		stat = CompileStat{
			TotalMS:  float64(el.Nanoseconds()) / 1e6,
			PhaseMS:  phases,
			MIPNodes: c.MIPNodes(),
			PUs:      c.Resources().Total,
		}
	}
	return stat, nil
}

// IncrementalBenchCase replays a one-knob-changed recompile sequence: a base
// compile followed by a recompile with exactly one knob changed. The cold
// leg recompiles the changed configuration from scratch; the incremental leg
// recompiles it through a design store populated by the base compile, so the
// measured gap is exactly what per-stage memoization buys.
type IncrementalBenchCase struct {
	Workload   string
	Par, Scale int
	Solver     bool
	MaxNodes   int
	// Change names the knob the recompile flips: "par" doubles the
	// parallelization factor (the frontend's consistency analysis and the
	// par-invariant solver instances are reusable), "arch" shrinks the chip
	// grid to 16×16 (nothing before placement reads it), "opt" flips the
	// crossbar-elimination flag (everything through partition is reusable).
	Change string
}

// IncrementalBenchRow is one replayed recompile's result.
type IncrementalBenchRow struct {
	Workload string `json:"workload"`
	Change   string `json:"change"`
	Par      int    `json:"par"`
	Scale    int    `json:"scale"`
	Solver   bool   `json:"solver"`
	// Cold is the one-knob-changed recompile with no store; Incremental is
	// the same recompile through a store primed by the base compile.
	Cold        CompileStat `json:"cold"`
	Incremental CompileStat `json:"incremental"`
	// StagesRestored lists the pipeline stages the incremental leg restored
	// from the store instead of recomputing.
	StagesRestored []string `json:"stages_restored"`
	// SolverInstanceHits counts MIP instances answered from the
	// content-addressed instance memo during the incremental recompile.
	SolverInstanceHits int64 `json:"solver_instance_hits,omitempty"`
	// Speedup is cold wall-clock over incremental wall-clock.
	Speedup float64 `json:"speedup"`
}

// incrementalKnobs returns the changed-leg compiler configuration and par
// factor for a case's knob flip.
func incrementalKnobs(cs IncrementalBenchCase) (core.Config, int, error) {
	cfg := compileBenchConfig(CompileBenchCase{
		Workload: cs.Workload, Par: cs.Par, Scale: cs.Scale,
		Solver: cs.Solver, MaxNodes: cs.MaxNodes,
	}, false)
	par := cs.Par
	switch cs.Change {
	case "par":
		par *= 2
	case "arch":
		sm := *arch.SARA20x20()
		sm.Rows, sm.Cols = 16, 16
		sm.NumPCU = sm.NumPCU * 16 * 16 / (20 * 20)
		sm.NumPMU = sm.NumPMU * 16 * 16 / (20 * 20)
		cfg.Spec = &sm
	case "opt":
		cfg.Opt.XbarElm = !cfg.Opt.XbarElm
	default:
		return cfg, 0, fmt.Errorf("unknown incremental change %q (want par, arch, or opt)", cs.Change)
	}
	return cfg, par, nil
}

// IncrementalBench replays every case's one-knob-changed recompile cold and
// incrementally, keeping the fastest of reps runs per leg. Both legs must
// produce identical designs — a mismatch fails the run.
func IncrementalBench(cases []IncrementalBenchCase, reps int) ([]IncrementalBenchRow, error) {
	if reps <= 0 {
		reps = 1
	}
	var out []IncrementalBenchRow
	for _, cs := range cases {
		w, err := workloads.ByName(cs.Workload)
		if err != nil {
			return nil, err
		}
		baseCfg := compileBenchConfig(CompileBenchCase{
			Workload: cs.Workload, Par: cs.Par, Scale: cs.Scale,
			Solver: cs.Solver, MaxNodes: cs.MaxNodes,
		}, false)
		changedCfg, changedPar, err := incrementalKnobs(cs)
		if err != nil {
			return nil, err
		}
		row := IncrementalBenchRow{
			Workload: cs.Workload, Change: cs.Change,
			Par: cs.Par, Scale: cs.Scale, Solver: cs.Solver,
		}

		// Cold leg: the changed configuration from scratch.
		var coldRes core.Resources
		var coldNodes int
		{
			var best time.Duration
			for r := 0; r < reps; r++ {
				prog := w.Build(workloads.Params{Par: changedPar, Scale: cs.Scale})
				t0 := time.Now()
				c, err := core.Compile(prog, changedCfg)
				el := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("incremental %s/%s (cold): %w", cs.Workload, cs.Change, err)
				}
				if best != 0 && el >= best {
					continue
				}
				best = el
				row.Cold = compileStat(c, el)
				coldRes, coldNodes = c.Resources(), c.MIPNodes()
			}
		}

		// Incremental leg: base compile primes a fresh store, then the
		// changed configuration recompiles through it. Only the recompile is
		// timed.
		var best time.Duration
		for r := 0; r < reps; r++ {
			memo, err := store.Open("")
			if err != nil {
				return nil, err
			}
			bc, cc := baseCfg, changedCfg
			bc.Memo, cc.Memo = memo, memo
			if _, err := core.Compile(w.Build(workloads.Params{Par: cs.Par, Scale: cs.Scale}), bc); err != nil {
				return nil, fmt.Errorf("incremental %s/%s (base): %w", cs.Workload, cs.Change, err)
			}
			solverHitsBefore := memo.Stats().SolverHits
			prog := w.Build(workloads.Params{Par: changedPar, Scale: cs.Scale})
			t0 := time.Now()
			c, err := core.Compile(prog, cc)
			el := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("incremental %s/%s (warm): %w", cs.Workload, cs.Change, err)
			}
			if c.Resources() != coldRes || c.MIPNodes() != coldNodes {
				return nil, fmt.Errorf("incremental %s/%s: warm recompile diverged from cold (%+v/%d vs %+v/%d)",
					cs.Workload, cs.Change, c.Resources(), c.MIPNodes(), coldRes, coldNodes)
			}
			if best != 0 && el >= best {
				continue
			}
			best = el
			row.Incremental = compileStat(c, el)
			row.SolverInstanceHits = memo.Stats().SolverHits - solverHitsBefore
			row.StagesRestored = nil
			for _, stage := range core.StageNames {
				if c.StageHits[stage] {
					row.StagesRestored = append(row.StagesRestored, stage)
				}
			}
		}
		if row.Incremental.TotalMS > 0 {
			row.Speedup = row.Cold.TotalMS / row.Incremental.TotalMS
		}
		out = append(out, row)
	}
	return out, nil
}

// compileStat packages one compile's timing.
func compileStat(c *core.Compiled, el time.Duration) CompileStat {
	phases := make(map[string]float64, len(c.PhaseTimes))
	for name, d := range c.PhaseTimes {
		phases[name] = float64(d.Nanoseconds()) / 1e6
	}
	return CompileStat{
		TotalMS:  float64(el.Nanoseconds()) / 1e6,
		PhaseMS:  phases,
		MIPNodes: c.MIPNodes(),
		PUs:      c.Resources().Total,
	}
}

// CompileBench times every case, running solver cases in both legs.
func CompileBench(cases []CompileBenchCase, reps int) ([]CompileBenchRow, error) {
	if reps <= 0 {
		reps = 1
	}
	var out []CompileBenchRow
	for _, cs := range cases {
		w, err := workloads.ByName(cs.Workload)
		if err != nil {
			return nil, err
		}
		row := CompileBenchRow{Workload: cs.Workload, Par: cs.Par, Scale: cs.Scale, Solver: cs.Solver}
		row.Optimized, err = timeCompile(w, cs, false, reps)
		if err != nil {
			return nil, fmt.Errorf("compile %s (optimized): %w", cs.Workload, err)
		}
		if cs.Solver {
			base, err := timeCompile(w, cs, true, reps)
			if err != nil {
				return nil, fmt.Errorf("compile %s (baseline): %w", cs.Workload, err)
			}
			row.Baseline = &base
			if row.Optimized.TotalMS > 0 {
				row.Speedup = base.TotalMS / row.Optimized.TotalMS
			}
		}
		out = append(out, row)
	}
	return out, nil
}
