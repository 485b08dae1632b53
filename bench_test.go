// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV). Run the full harness with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFig*/BenchmarkTable* iteration regenerates the corresponding
// artifact; the rendered rows are printed once per benchmark via b.Log (show
// them with -v). Custom metrics report the headline numbers — geo-mean
// speedups, scaling slopes — so regressions in the reproduced results are
// visible in benchmark output, not just wall-clock time. The saraeval CLI
// prints the same artifacts interactively.
package sara_test

import (
	"sync"
	"testing"

	"sara"
	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/eval"
	"sara/internal/pc"
	"sara/internal/sim"
	"sara/internal/workloads"
	"sara/plasticine"
)

// logOnce prints a rendered artifact the first time a benchmark runs.
var logOnce sync.Map

func logArtifact(b *testing.B, key, txt string) {
	if _, seen := logOnce.LoadOrStore(key, true); !seen {
		b.Log("\n" + txt)
	}
}

// BenchmarkFig9a regenerates the scalability study: mlp (compute-bound,
// near-linear to par 256) and rf (saturating around par 128).
func BenchmarkFig9a(b *testing.B) {
	spec := arch.SARA20x20()
	pars := []int{1, 16, 64, 128, 256}
	for i := 0; i < b.N; i++ {
		data, txt, err := eval.Fig9a([]string{"mlp", "rf"}, pars, spec)
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "fig9a", txt)
		mlp := data["mlp"]
		last := mlp[len(mlp)-1]
		b.ReportMetric(last.Speedup/float64(last.Par), "mlp-scaling-efficiency")
	}
}

// BenchmarkFig9b regenerates the performance/resource tradeoff space and its
// Pareto frontier.
func BenchmarkFig9b(b *testing.B) {
	spec := arch.SARA20x20()
	for i := 0; i < b.N; i++ {
		pts, txt, err := eval.Fig9b([]string{"mlp", "lstm"}, []int{16, 64, 256}, spec)
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "fig9b", txt)
		pareto := 0
		for _, p := range pts {
			if p.Pareto {
				pareto++
			}
		}
		b.ReportMetric(float64(pareto), "pareto-points")
	}
}

// BenchmarkFig10 regenerates the optimization-effectiveness ablation.
func BenchmarkFig10(b *testing.B) {
	spec := arch.SARA20x20()
	for i := 0; i < b.N; i++ {
		effects, txt, err := eval.Fig10([]string{"mlp", "lstm", "kmeans", "bs"}, 64, spec)
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "fig10", txt)
		worst := 1.0
		for _, e := range effects {
			if e.Slowdown > worst {
				worst = e.Slowdown
			}
		}
		b.ReportMetric(worst, "worst-ablation-slowdown")
	}
}

// BenchmarkFig11 regenerates the traversal-vs-solver partitioning comparison
// (reduced problem size so the exact branch-and-bound terminates quickly;
// the paper's Gurobi runs take hours to days).
func BenchmarkFig11(b *testing.B) {
	spec := arch.SARA20x20()
	for i := 0; i < b.N; i++ {
		rs, txt, err := eval.Fig11([]string{"kmeans", "lstm"}, 8, 16, spec)
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "fig11", txt)
		worst := 1.0
		for _, r := range rs {
			if r.Normalized > worst {
				worst = r.Normalized
			}
		}
		b.ReportMetric(worst, "worst-normalized-PUs")
	}
}

// BenchmarkTable4 regenerates the benchmark-characteristics table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, txt := eval.Table4()
		logArtifact(b, "table4", txt)
		b.ReportMetric(float64(len(rows)), "kernels")
	}
}

// BenchmarkTable5 regenerates the vanilla-Plasticine-compiler comparison
// (paper geo-mean: 4.9×).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gm, txt, err := eval.Table5()
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "table5", txt)
		b.ReportMetric(gm, "geomean-speedup-vs-PC")
	}
}

// BenchmarkTable6 regenerates the Tesla V100 comparison (paper geo-mean:
// 1.9×).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gm, txt, err := eval.Table6()
		if err != nil {
			b.Fatal(err)
		}
		logArtifact(b, "table6", txt)
		b.ReportMetric(gm, "geomean-speedup-vs-V100")
	}
}

// BenchmarkCompile measures the full compiler flow per workload.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"mlp", "lstm", "bs", "pr", "kmeans"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.SkipPlace = true
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(w.Build(workloads.Params{Par: 64, Scale: 1}), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cycleEngineCases are the BenchmarkCycleEngine workloads. rf is the
// token-stall-heavy case — credit loops against saturated DRAM leave most of
// its units parked on token waits (~1.1 firings/cycle across 80 units), the
// regime the event engine targets. sort is moderately sparse, and bs at this
// size is a small, busy graph where the dense scan is near-free — an honest
// worst case for the event engine's bookkeeping.
var cycleEngineCases = []struct {
	workload   string
	par, scale int
}{
	{"rf", 64, 256},
	{"sort", 128, 256},
	{"bs", 16, 32},
}

// BenchmarkCycleEngine measures both cycle-level engines on the same compiled
// designs, reporting simulated-cycles per wall-clock second. The dense/event
// ratio is the tentpole speedup tracked in BENCH_sim.json across PRs.
func BenchmarkCycleEngine(b *testing.B) {
	for _, tc := range cycleEngineCases {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.SkipPlace = true
		c, err := core.Compile(w.Build(workloads.Params{Par: tc.par, Scale: tc.scale}), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			kind sim.EngineKind
		}{{"event", sim.EngineEvent}, {"dense", sim.EngineDense}} {
			b.Run(tc.workload+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles, fired int64
				for i := 0; i < b.N; i++ {
					r, err := sim.CycleEngine(c.Design(), 0, eng.kind)
					if err != nil {
						b.Fatal(err)
					}
					cycles, fired = r.Cycles, r.FiredTotal
				}
				perOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(float64(cycles)/perOp, "simcycles/s")
				b.ReportMetric(float64(fired), "firings/run")
			})
		}
	}
}

// BenchmarkProfileOverhead is the profiler's zero-cost-when-off guard: the
// "off" leg runs the plain engine (whose only profiling cost is a nil check
// on the recording pointer per firing) and must match the committed
// BenchmarkCycleEngine numbers; the "on" leg bounds what attaching the
// recorder costs when it is wanted. rf is the stall-heavy case, so it
// stresses the stall-interval path, not just busy recording.
func BenchmarkProfileOverhead(b *testing.B) {
	w, err := workloads.ByName("rf")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	c, err := core.Compile(w.Build(workloads.Params{Par: 64, Scale: 256}), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			r, err := sim.CycleEngine(c.Design(), 0, sim.EngineEvent)
			if err != nil {
				b.Fatal(err)
			}
			cycles = r.Cycles
		}
		b.ReportMetric(float64(cycles)/(b.Elapsed().Seconds()/float64(b.N)), "simcycles/s")
	})
	b.Run("on", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			r, _, err := sim.CycleProfiled(c.Design(), 0, sim.EngineEvent)
			if err != nil {
				b.Fatal(err)
			}
			cycles = r.Cycles
		}
		b.ReportMetric(float64(cycles)/(b.Elapsed().Seconds()/float64(b.N)), "simcycles/s")
	})
}

// BenchmarkAnalyticEngine measures the steady-state model (it is what the
// paper-scale sweeps run, so its speed bounds the harness).
func BenchmarkAnalyticEngine(b *testing.B) {
	w, err := workloads.ByName("mlp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	c, err := core.Compile(w.Build(workloads.Params{Par: 256, Scale: 1}), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Analytic(c.Design()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI measures the end-to-end facade path an adopter uses.
func BenchmarkPublicAPI(b *testing.B) {
	w, err := workloads.ByName("lstm")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(workloads.Params{Par: 32, Scale: 4})
	for i := 0; i < b.N; i++ {
		d, err := sara.Compile(prog, sara.WithChip(plasticine.SARA20x20()), sara.WithoutPlacement())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Simulate(sara.EngineAnalytic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaledChips extends the Fig 9a study beyond the 20×20 chip: the
// paper predicts compute-bound applications "will extract more performance
// for on-chip resource-bound applications on larger Plasticine
// configurations" (§IV-A). mlp at par 512/1024 only fits the 2×/4× chips.
func BenchmarkScaledChips(b *testing.B) {
	w, err := workloads.ByName("mlp")
	if err != nil {
		b.Fatal(err)
	}
	chips := []struct {
		name string
		spec func() *arch.Spec
		par  int
	}{
		{"base-20x20/par256", arch.SARA20x20, 256},
		{"x2/par512", func() *arch.Spec { return arch.SARA20x20().Scaled(2) }, 512},
		{"x4/par1024", func() *arch.Spec { return arch.SARA20x20().Scaled(4) }, 1024},
	}
	for _, c := range chips {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Spec = c.spec()
			cfg.SkipPlace = true
			for i := 0; i < b.N; i++ {
				comp, err := core.Compile(w.Build(workloads.Params{Par: c.par, Scale: 1}), cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.Analytic(comp.Design())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Cycles), "cycles")
				b.ReportMetric(float64(comp.Resources().Total), "PUs")
			}
		})
	}
}

// BenchmarkCMMCvsHierarchical isolates the paper's central control-paradigm
// claim (§IV-C): the same program under CMMC's peer-to-peer tokens versus
// the hierarchical enable/done handshake scheme of the vanilla compiler.
func BenchmarkCMMCvsHierarchical(b *testing.B) {
	w, err := workloads.ByName("gda")
	if err != nil {
		b.Fatal(err)
	}
	spec := arch.PlasticineV1()
	for i := 0; i < b.N; i++ {
		prog := w.Build(workloads.Params{Par: 16, Scale: 1})
		cfg := core.DefaultConfig()
		cfg.Spec = spec
		cfg.SkipPlace = true
		cmmc, err := core.Compile(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.Analytic(cmmc.Design())
		if err != nil {
			b.Fatal(err)
		}
		bubbles := pc.HandshakeBubbles(prog, spec)
		b.ReportMetric(float64(r.Cycles), "cmmc-cycles")
		b.ReportMetric(float64(r.Cycles+bubbles), "hierarchical-cycles")
		b.ReportMetric(float64(r.Cycles+bubbles)/float64(r.Cycles), "control-overhead-ratio")
	}
}
