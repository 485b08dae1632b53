// Command sarabench produces the committed benchmark records.
//
// Simulation mode times the two cycle-level engines on the same compiled
// designs and writes the comparison to BENCH_sim.json — the committed record
// of the event engine's speedup over the dense reference. The workload set
// mirrors BenchmarkCycleEngine in bench_test.go: rf is the token-stall-heavy
// case the event engine targets, sort is moderately sparse, and bs is a
// small busy graph where the dense scan is near-free.
//
// Compile mode times the compiler itself and writes BENCH_compile.json: a
// traversal row per registered workload for per-stage coverage, solver rows
// that compare the pre-optimization MIP path (cold LP relaxations) against
// the same branch-and-bound with warm-started relaxations, and
// incremental rows that replay one-knob-changed recompiles (par, arch, and
// opt-flag changes) cold versus through the content-addressed design store.
//
// Serve mode benchmarks the serving layer itself: it boots an in-process
// 3-node sarad cluster (consistent-hash sharded, persistent stores in a
// scratch directory) and replays realistic request mixes — hot cache, cold
// cache, profile on/off, and one-knob incremental
// recompiles — recording p50/p99 latency, RPS, and cluster-wide
// unique-compile counts to BENCH_serve.json.
//
// Tune mode runs the committed autotuner searches and writes
// BENCH_tune.json: an rf chip-sizing sweep where the fit check prunes most
// of the space and design-identity dedupe collapses the survivors onto a
// handful of cycle simulations, and a DRAM-bound ms sweep where the
// analytic roofline proves most channel-cut and opt-ablated points
// dominated. The record pins the pruned fraction, stage-cache hit rate,
// and the Pareto front itself — the search is deterministic, so fronts are
// comparable across commits.
//
// Usage:
//
//	sarabench [-mode all|sim|compile|serve|tune] [-reps 10] [-o BENCH_sim.json]
//	          [-compile-reps 1] [-compile-o BENCH_compile.json] [-smoke]
//	          [-serve-o BENCH_serve.json] [-serve-nodes 3] [-serve-clients 8]
//	          [-tune-o BENCH_tune.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/eval"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/tune"
	"sara/internal/workloads"
)

// benchCase is one compiled design both engines run.
type benchCase struct {
	workload   string
	par, scale int
}

var benchCases = []benchCase{
	{"rf", 64, 256},
	{"rf", 128, 512},
	{"sort", 128, 256},
	{"bs", 16, 32},
}

// EngineStat is one engine's timing on one workload.
type EngineStat struct {
	NsPerOp     int64   `json:"ns_per_op"`
	SimCyclesPS float64 `json:"sim_cycles_per_sec"`
}

// Row is one workload's comparison.
type Row struct {
	Workload string     `json:"workload"`
	Par      int        `json:"par"`
	Scale    int        `json:"scale"`
	Units    int        `json:"units"`
	Edges    int        `json:"edges"`
	Cycles   int64      `json:"cycles"`
	Fired    int64      `json:"fired_total"`
	TokenWt  int64      `json:"token_wait_stalls"`
	Event    EngineStat `json:"event"`
	Dense    EngineStat `json:"dense"`
	// Speedup is dense wall-clock over event wall-clock (>1 means the
	// event engine is faster).
	Speedup float64 `json:"event_speedup_over_dense"`
	// Bottleneck summarizes one profiled run of the same design: the unit
	// losing the most cycles to stalls and its dominant cause. Profiling runs
	// outside the timed region, so the committed timings stay unperturbed.
	Bottleneck       string `json:"bottleneck,omitempty"`
	BottleneckCause  string `json:"bottleneck_cause,omitempty"`
	BottleneckStalls int64  `json:"bottleneck_stall_cycles,omitempty"`
}

// Report is the BENCH_sim.json document. The meta stamp pins the host
// parallelism the timings were measured under.
type Report struct {
	Meta eval.BenchMeta `json:"meta"`
	Reps int            `json:"reps"`
	Rows []Row          `json:"rows"`
}

func timeEngine(d *sim.Design, kind sim.EngineKind, reps int) (EngineStat, *sim.Result, error) {
	var best time.Duration
	var last *sim.Result
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r, err := sim.CycleEngine(d, 0, kind)
		el := time.Since(t0)
		if err != nil {
			return EngineStat{}, nil, err
		}
		if best == 0 || el < best {
			best = el
		}
		last = r
	}
	return EngineStat{
		NsPerOp:     best.Nanoseconds(),
		SimCyclesPS: float64(last.Cycles) / best.Seconds(),
	}, last, nil
}

// compileCases is the BENCH_compile.json workload set: every registered
// workload through the traversal path for per-stage coverage, and the three
// solver-partitioned cases whose MIP trees the warm-started relaxations
// accelerate. bs carries the heaviest LP relaxations, so its tree is kept
// shallow; rf and ms explore deeper trees of small LPs.
func compileCases() []eval.CompileBenchCase {
	var cases []eval.CompileBenchCase
	for _, w := range workloads.All() {
		cases = append(cases, eval.CompileBenchCase{Workload: w.Name, Par: 16, Scale: 16})
	}
	for _, s := range []eval.CompileBenchCase{
		{Workload: "bs", Par: 16, Scale: 16, Solver: true, MaxNodes: 4},
		{Workload: "rf", Par: 16, Scale: 16, Solver: true, MaxNodes: 60},
		{Workload: "ms", Par: 16, Scale: 16, Solver: true, MaxNodes: 60},
	} {
		cases = append(cases, s)
	}
	return cases
}

// incrementalCases is the BENCH_compile.json one-knob-replay set: each case
// compiles a base configuration, flips one knob, and recompiles cold vs
// through the design store. The solver par-change rows are the headline —
// the frontend restores from the store and the par-invariant MIP instances
// answer from the instance memo, so the dominant partition cost collapses.
func incrementalCases() []eval.IncrementalBenchCase {
	return []eval.IncrementalBenchCase{
		{Workload: "rf", Par: 16, Scale: 16, Solver: true, MaxNodes: 60, Change: "par"},
		{Workload: "ms", Par: 16, Scale: 16, Solver: true, MaxNodes: 60, Change: "par"},
		{Workload: "mlp", Par: 16, Scale: 16, Change: "par"},
		{Workload: "rf", Par: 16, Scale: 16, Solver: true, MaxNodes: 60, Change: "arch"},
		{Workload: "ms", Par: 16, Scale: 16, Solver: true, MaxNodes: 60, Change: "opt"},
	}
}

// smokeCases is the one-iteration `make benchsmoke` subset: a single cheap
// solver case plus one traversal case, enough to catch harness bit-rot
// without paying for a timing run.
func smokeCases() []eval.CompileBenchCase {
	return []eval.CompileBenchCase{
		{Workload: "mlp", Par: 4, Scale: 16},
		{Workload: "rf", Par: 4, Scale: 16, Solver: true, MaxNodes: 10},
	}
}

// smokeIncrementalCases is the benchsmoke incremental row: one cheap solver
// par-change replay that exercises the full store path.
func smokeIncrementalCases() []eval.IncrementalBenchCase {
	return []eval.IncrementalBenchCase{
		{Workload: "rf", Par: 4, Scale: 16, Solver: true, MaxNodes: 10, Change: "par"},
	}
}

func runCompile(reps int, out string, smoke bool) error {
	cases := compileCases()
	incCases := incrementalCases()
	if smoke {
		cases = smokeCases()
		incCases = smokeIncrementalCases()
	}
	rows, err := eval.CompileBench(cases, reps)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Solver {
			fmt.Printf("%-6s par=%-4d scale=%-4d solver   cold %9.1fms  warm %9.1fms  speedup %.2fx  nodes=%d\n",
				r.Workload, r.Par, r.Scale, r.Baseline.TotalMS, r.Optimized.TotalMS, r.Speedup, r.Optimized.MIPNodes)
		} else {
			fmt.Printf("%-6s par=%-4d scale=%-4d traversal %8.1fms\n",
				r.Workload, r.Par, r.Scale, r.Optimized.TotalMS)
		}
	}
	incRows, err := eval.IncrementalBench(incCases, reps)
	if err != nil {
		return err
	}
	for _, r := range incRows {
		fmt.Printf("%-6s par=%-4d scale=%-4d %-11s cold %9.1fms  incr %9.1fms  speedup %.2fx  restored=%d solver-hits=%d\n",
			r.Workload, r.Par, r.Scale, r.Change+"-change", r.Cold.TotalMS, r.Incremental.TotalMS,
			r.Speedup, len(r.StagesRestored), r.SolverInstanceHits)
	}
	var compileWorkloads []string
	for _, cs := range cases {
		compileWorkloads = append(compileWorkloads, cs.Workload)
	}
	for _, cs := range incCases {
		compileWorkloads = append(compileWorkloads, cs.Workload)
	}
	doc := struct {
		Meta        eval.BenchMeta             `json:"meta"`
		Reps        int                        `json:"reps"`
		Rows        []eval.CompileBenchRow     `json:"rows"`
		Incremental []eval.IncrementalBenchRow `json:"incremental"`
	}{Meta: eval.NewBenchMeta(compileWorkloads...), Reps: reps, Rows: rows, Incremental: incRows}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func runSim(reps int, out string) error {
	var simWorkloads []string
	for _, bc := range benchCases {
		simWorkloads = append(simWorkloads, bc.workload)
	}
	rep := Report{Meta: eval.NewBenchMeta(simWorkloads...), Reps: reps}
	for _, bc := range benchCases {
		w, err := workloads.ByName(bc.workload)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.Spec = arch.SARA20x20()
		cfg.SkipPlace = true
		c, err := core.Compile(w.Build(workloads.Params{Par: bc.par, Scale: bc.scale}), cfg)
		if err != nil {
			return fmt.Errorf("compile %s: %w", bc.workload, err)
		}
		d := c.Design()
		ev, er, err := timeEngine(d, sim.EngineEvent, reps)
		if err != nil {
			return fmt.Errorf("event %s: %w", bc.workload, err)
		}
		de, dr, err := timeEngine(d, sim.EngineDense, reps)
		if err != nil {
			return fmt.Errorf("dense %s: %w", bc.workload, err)
		}
		if er.Cycles != dr.Cycles || er.FiredTotal != dr.FiredTotal {
			return fmt.Errorf("%s: engines disagree (cycles %d vs %d, fired %d vs %d)",
				bc.workload, er.Cycles, dr.Cycles, er.FiredTotal, dr.FiredTotal)
		}
		row := Row{
			Workload: bc.workload, Par: bc.par, Scale: bc.scale,
			Units: len(d.G.VUs), Edges: len(d.G.Edges),
			Cycles: er.Cycles, Fired: er.FiredTotal,
			TokenWt: er.Stalls["token-wait"],
			Event:   ev, Dense: de,
			Speedup: float64(de.NsPerOp) / float64(ev.NsPerOp),
		}
		// One untimed profiled run attributes where the cycles went.
		if _, rec, err := sim.CycleProfiled(d, 0, sim.EngineEvent); err == nil {
			if top := profile.Analyze(rec).TopStalled(1); len(top) > 0 {
				cause, _ := top[0].DominantStall()
				row.Bottleneck = top[0].Name
				row.BottleneckCause = cause.String()
				row.BottleneckStalls = top[0].StallTotal()
			}
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("%-6s par=%-4d scale=%-4d event %8.3fms  dense %8.3fms  speedup %.2fx",
			bc.workload, bc.par, bc.scale,
			float64(ev.NsPerOp)/1e6, float64(de.NsPerOp)/1e6, row.Speedup)
		if row.Bottleneck != "" {
			fmt.Printf("  bottleneck %s (%s, %d stall cycles)",
				row.Bottleneck, row.BottleneckCause, row.BottleneckStalls)
		}
		fmt.Println()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// tuneSearches is the BENCH_tune.json search set. Each entry is a
// deterministic autotuner run whose committed record demonstrates the two
// pruning modes: rf is a chip-sizing sweep where most of the space is
// analytically unfittable (small chips cannot hold high-par designs) and
// design-identity dedupe collapses the survivors onto four cycle
// simulations; ms is DRAM-bound, so the analytic roofline proves most
// channel-cut and opt-ablated points dominated before they reach the cycle
// engine.
func tuneSearches(smoke bool) []tune.Options {
	if smoke {
		return []tune.Options{{
			Workload: "ms", Scale: 16,
			Space: tune.Space{
				Pars:         []int{4, 8, 16},
				Opts:         []tune.OptSet{tune.NamedOptSets[0], tune.NamedOptSets[len(tune.NamedOptSets)-1]},
				DRAMChannels: []int{8, 16},
			},
		}}
	}
	return []tune.Options{
		{
			Workload: "rf", Scale: 32,
			Space: tune.Space{
				Pars:   []int{16, 32, 64, 128, 256},
				NumPCU: []int{12, 24, 48, 96, 200},
				NumPMU: []int{32, 200},
				NumAG:  []int{8, 20},
			},
		},
		{
			Workload: "ms", Scale: 16,
			Space: tune.Space{
				Pars:         []int{4, 8, 16, 32, 64, 96, 192},
				Opts:         []tune.OptSet{tune.NamedOptSets[0], tune.NamedOptSets[len(tune.NamedOptSets)-1]},
				DRAMChannels: []int{4, 8, 16},
			},
		},
	}
}

// runTune executes the committed autotuner searches and writes
// BENCH_tune.json. Outside smoke mode it enforces the record's headline
// claims: more than half of each space pruned without a cycle simulation,
// and a best seed-arch point no slower than the hand-picked baseline.
func runTune(out string, smoke bool) error {
	searches := tuneSearches(smoke)
	var names []string
	var results []*tune.Result
	for _, o := range searches {
		names = append(names, o.Workload)
		r, err := tune.Run(o)
		if err != nil {
			return fmt.Errorf("tune %s: %w", o.Workload, err)
		}
		results = append(results, r)
		fmt.Printf("%-6s scale=%-4d explored=%-4d pruned=%d+%d unfit  validated=%-3d sims=%-3d (+%d shared)  pruned-fraction %.0f%%  stage-hit-rate %.0f%%  wall %dms\n",
			r.Workload, r.Scale, r.Stats.Explored, r.Stats.PrunedDominated, r.Stats.Unfit,
			r.Stats.Validated, r.Stats.CycleSims, r.Stats.SharedSims,
			100*r.Stats.PrunedFraction(), 100*r.Stats.StageHitRate, r.Stats.WallMS)
		for _, id := range r.Front {
			p := &r.Points[id]
			fmt.Printf("       front %-44s total=%-4d cycles=%d\n", p.Point.Label(), p.Total, p.Cycles)
		}
		if smoke {
			continue
		}
		if f := r.Stats.PrunedFraction(); f <= 0.5 {
			return fmt.Errorf("tune %s: pruned fraction %.0f%% — the committed search spaces must show the analytic model skipping most points", r.Workload, 100*f)
		}
		best := r.BestAtBaseArch()
		if best == nil || best.Cycles > r.Baseline.Cycles {
			return fmt.Errorf("tune %s: best seed-arch point does not match the hand-picked baseline (%v vs %d cycles)", r.Workload, best, r.Baseline.Cycles)
		}
	}
	doc := struct {
		Meta     eval.BenchMeta `json:"meta"`
		Searches []*tune.Result `json:"searches"`
	}{Meta: eval.NewBenchMeta(names...), Searches: results}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runServe boots the in-process cluster load generator and writes
// BENCH_serve.json.
func runServe(nodes, clients int, out string, smoke bool) error {
	rep, err := eval.ServeBench(eval.ServeBenchOptions{Nodes: nodes, Clients: clients, Smoke: smoke})
	if err != nil {
		return err
	}
	for _, r := range rep.Rows {
		fmt.Printf("%-22s %4d reqs  p50 %8.2fms  p99 %8.2fms  %8.1f rps  compiles=%-3d proxied=%-3d cache-hits=%-3d store=%d",
			r.Mix, r.Requests, r.P50MS, r.P99MS, r.RPS, r.UniqueCompiles, r.Proxied, r.CacheHits, r.StoreServes)
		if r.Errors > 0 {
			fmt.Printf("  ERRORS=%d", r.Errors)
		}
		fmt.Println()
		if r.Errors > 0 {
			return fmt.Errorf("serve mix %s had %d failed requests", r.Mix, r.Errors)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// modes is the -mode value list of the flag usage and the unknown-mode
// error; the header comment's usage line names the same five.
const modes = "all, sim, compile, serve, or tune"

func main() {
	var (
		mode         = flag.String("mode", "all", "which benchmarks to run: "+modes)
		reps         = flag.Int("reps", 10, "repetitions per engine (best-of timing)")
		out          = flag.String("o", "BENCH_sim.json", "simulation output path")
		compileReps  = flag.Int("compile-reps", 1, "repetitions per compile leg (best-of timing)")
		compileOut   = flag.String("compile-o", "BENCH_compile.json", "compile output path")
		smoke        = flag.Bool("smoke", false, "compile/serve/tune modes: run the tiny smoke subset")
		serveOut     = flag.String("serve-o", "BENCH_serve.json", "serve output path")
		serveNodes   = flag.Int("serve-nodes", 3, "serve mode: in-process cluster size")
		serveClients = flag.Int("serve-clients", 8, "serve mode: concurrent load-generator clients")
		tuneOut      = flag.String("tune-o", "BENCH_tune.json", "tune output path")
	)
	flag.Parse()

	switch *mode {
	case "all", "sim", "compile", "serve", "tune":
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want %s)\n", *mode, modes)
		os.Exit(1)
	}
	if *mode == "all" || *mode == "sim" {
		if err := runSim(*reps, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *mode == "all" || *mode == "compile" {
		if err := runCompile(*compileReps, *compileOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *mode == "all" || *mode == "serve" {
		if err := runServe(*serveNodes, *serveClients, *serveOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *mode == "all" || *mode == "tune" {
		if err := runTune(*tuneOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
