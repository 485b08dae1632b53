package sim_test

import (
	"reflect"
	"testing"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/eval"
	"sara/internal/ir"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertFastForwardExact runs d on the event engine with and without the
// steady-state fast-forward and requires a reflect.DeepEqual Result or a
// byte-identical error. It returns the fast-forward run's Span (Spanned 0
// when the run failed) and its error.
func assertFastForwardExact(t *testing.T, d *sim.Design, maxCycles int64) (sim.Span, error) {
	t.Helper()
	fast, span, err := sim.CycleEventSpan(d, maxCycles)
	slow, slowErr := sim.CycleEngineNoFastPath(d, maxCycles)
	switch {
	case err != nil || slowErr != nil:
		if err == nil || slowErr == nil || err.Error() != slowErr.Error() {
			t.Errorf("outcomes differ:\n fast-forward: %v\n reference:    %v", err, slowErr)
		}
		span.Spanned = 0
	case !reflect.DeepEqual(fast, slow):
		t.Errorf("Results differ:\n fast-forward: %+v\n reference:    %+v", fast, slow)
	}
	return span, err
}

// solverConfig compiles the way the benchmark's solver workload does: MIP
// partition and merge, each capped at 60 branch-and-bound nodes.
func solverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Partition.Algo, cfg.Merge.Algo = partition.AlgoSolver, partition.AlgoSolver
	cfg.Partition.Gap, cfg.Merge.Gap = 0.15, 0.15
	cfg.Partition.MaxNodes, cfg.Merge.MaxNodes = 60, 60
	cfg.Partition.TimeLimit, cfg.Merge.TimeLimit = 10*time.Minute, 10*time.Minute
	return cfg
}

// TestFastForwardExact is the fast-forward's guard: on every design the
// benchmark simulates for long, on mlp p16/s1 and Table VI's ms, sort and
// lstm points, on the deadlocking designs, on a design whose second phase
// alone repeats, and under a cycle cap inside a skipped stretch, the run
// must be indistinguishable from one without it. Every kernels design must
// also skip about as much as the detector reaches (logreg and pr at p64/s8
// skip only by capturing states whose DRAM channels are still busy), and
// so must the long rf runs. The engine visits of the benchmark's 16 kernels
// designs, and of rf p128/s8 alone, have ceilings a little above what the
// detector leaves (7.56 M and 2.39 M), so a change that visits more shows
// here without host time.
func TestFastForwardExact(t *testing.T) {
	const maxCycles = 30_000_000
	type design struct {
		group, name string
		par, scale  int
		mustSkip    int64 // percent of the spanned cycles skipped, at least
		long        bool  // over 2 s for both runs: skipped under -short
	}
	// The kernels designs' floors sit about 3 points under the shares the
	// detector reaches, so a change that skips less shows here first. rf
	// p128/s8 runs through eight phases, one per tree instance completing;
	// its first repeats every 11 517 cycles.
	floors := map[string]int64{
		"bs/p64": 55, "gda/p64": 35, "kmeans/p64": 69, "logreg/p64": 78, "mlp/p64": 7,
		"ms/p64": 38, "pr/p64": 96, "rf/p64": 93, "sgd/p64": 78, "sort/p32": 61,
		"kmeans/p128": 69, "mlp/p128": 10, "rf/p128": 63, "mlp/p16": 84,
	}
	const (
		kernelsVisits = 7_800_000 // Σ over the 16 kernels designs
		rfP128Visits  = 2_600_000
	)
	var kernelsRan int
	var kernelsWork int64
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{"kernels", name, par, 8, floors[name+"/p"+itoa(par)], false})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{"kernels", name, 128, 8, floors[name+"/p128"], false})
	}
	ds = append(ds, design{"kernels", "mlp", 16, 1, floors["mlp/p16"], true})
	// Table VI's points, as eval.Table6 compiles them (par is the default
	// it starts its fit from).
	for _, name := range []string{"ms", "sort", "lstm"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, design{"table6", name, w.DefaultPar, 1, 0, false})
	}
	ds = append(ds, design{"solver", "rf", 16, 16, 80, false}, design{"solver", "rf", 32, 16, 80, false},
		design{"solver", "ms", 16, 16, 0, false}, design{"solver", "rf", 64, 32, 0, false},
		design{"solver", "ms", 32, 16, 0, false}, design{"solver", "ms", 64, 16, 0, false})
	for _, name := range workloads.Names() {
		var floor int64
		if name == "rf" {
			floor = 80
		}
		ds = append(ds, design{"serve-hot", name, 8, 16, floor, false})
	}
	for _, k := range ds {
		k := k
		t.Run(k.group+"/"+k.name+"/p"+itoa(k.par), func(t *testing.T) {
			if k.long && testing.Short() {
				t.Skip("over 2 s; runs without -short")
			}
			var d *sim.Design
			switch k.group {
			case "solver":
				w, err := workloads.ByName(k.name)
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), solverConfig())
				if err != nil {
					t.Fatal(err)
				}
				d = c.Design()
			case "table6":
				w, err := workloads.ByName(k.name)
				if err != nil {
					t.Fatal(err)
				}
				c, _, err := eval.Table6Design(w)
				if err != nil {
					t.Fatal(err)
				}
				d = c.Design()
			default:
				d = compilePlaced(t, k.name, k.par, k.scale)
			}
			span, _ := assertFastForwardExact(t, d, maxCycles)
			checkSkipped(t, "", span, k.mustSkip)
			if k.group == "kernels" && !k.long {
				kernelsRan++
				kernelsWork += span.Work
			}
			if k.group == "kernels" && k.name == "rf" && k.par == 128 && span.Work > rfP128Visits {
				t.Errorf("%d engine visits, want at most %d", span.Work, rfP128Visits)
			}
		})
	}
	if kernelsRan == 16 {
		t.Logf("kernels: %d engine visits over 16 designs", kernelsWork)
		if kernelsWork > kernelsVisits {
			t.Errorf("kernels: %d engine visits over 16 designs, want at most %d", kernelsWork, kernelsVisits)
		}
	}
	t.Run("deadlock", func(t *testing.T) {
		assertFastForwardExact(t, deadlockDesign(), 1_000_000)
		assertFastForwardExact(t, bankStarvedDesign(), 1_000_000)
		assertFastForwardExact(t, fullBufferDeadlockDesign(), 1_000_000)
		for limit := int64(9); limit <= 15; limit++ {
			assertFastForwardExact(t, drainedSinkDesign(), limit)
		}
		assertFastForwardExact(t, compilePlaced(t, "kmeans", 96, 16), maxCycles)
		assertFastForwardExact(t, compilePlaced(t, "rf", 48, 64), maxCycles)
	})
	// A read stream that saturates its channel keeps a bounded queue, so it
	// must skip, and every request after a jump lands on the shifted queue.
	// A write stream that outpaces its channel grows its backlog by a few
	// ticks each period while every other word of the state repeats, so a
	// jump that ignored the backlog would drop the queueing the skipped
	// periods add.
	t.Run("busy-channel", func(t *testing.T) {
		span, _ := assertFastForwardExact(t, saturatedReadDesign(), 1_000_000)
		checkSkipped(t, "saturated read: ", span, 40)
		span, _ = assertFastForwardExact(t, oversubscribedWriteDesign(), 1_000_000)
		checkSkipped(t, "oversubscribed write: ", span, 0)
	})
	// One producer completes mid-run and the rest settle into a new period.
	// The first phase never repeats, so every skipped cycle is the second
	// phase's: the search must restart at the completion rather than carry
	// the limit the first phase drove up.
	t.Run("two-phase", func(t *testing.T) {
		span, _ := assertFastForwardExact(t, twoPhaseDesign(), 1_000_000)
		checkSkipped(t, "", span, 35)
	})
	// rf p8/s16 runs 950 629 cycles and skips most of them; a cap of 700 000
	// falls inside the longest skipped stretch, so the jump must stop short
	// of it and the run end in the same "exceeded" error.
	t.Run("cap", func(t *testing.T) {
		d := compilePlaced(t, "rf", 8, 16)
		if span, _ := assertFastForwardExact(t, d, 700_000); span.Skipped == 0 {
			t.Error("no cycle skipped before the cap")
		}
		if _, err := sim.CycleEngine(d, 700_000, sim.EngineEvent); err == nil ||
			err.Error() != "sim: exceeded 700000 cycles without completing" {
			t.Errorf("capped run: %v", err)
		}
	})
}

// TestEarlyExitMatchesFullWalk holds the fast-forward's word-by-word
// comparison, which stops at the first differing word, to the full walk it
// replaces: at every compared capture of every kernels design and of rf
// p8/s16, its verdict must equal slices.Equal(full walk, checkpoint). Both
// go through one walk (the wrapped VMU port positions included), so what
// this holds is the early exit itself: the word count, the stop, and the
// verdict at the end.
func TestEarlyExitMatchesFullWalk(t *testing.T) {
	type design struct {
		name       string
		par, scale int
	}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{name, par, 8})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{name, 128, 8})
	}
	ds = append(ds, design{"rf", 8, 16})
	var ran, equal int
	for _, k := range ds {
		t.Run(k.name+"/p"+itoa(k.par)+"/s"+itoa(k.scale), func(t *testing.T) {
			n, err := sim.CycleEventCheckWalks(compilePlaced(t, k.name, k.par, k.scale), 30_000_000)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d captures compared word by word, %d equal to the checkpoint", n.Compared, n.Equal)
			if n.Wrong > 0 {
				t.Errorf("%d of %d early-exit verdicts differ from the full walk's", n.Wrong, n.Compared)
			}
			ran++
			equal += n.Equal
		})
	}
	if ran == len(ds) && equal == 0 {
		t.Error("no compared capture equalled its checkpoint: the check never saw a repeat")
	}
}

// checkSkipped logs what the fast-forward did in span, prefixed by what, and
// fails the test when it skipped less than floor percent of the spanned
// cycles. Jumps, engine visits and the words captures walked are counts, so
// two detectors compare by them without host time.
func checkSkipped(t *testing.T, what string, span sim.Span, floor int64) {
	t.Helper()
	t.Logf("%sskipped %d of %d cycles in %d jumps, %d engine visits, %d words walked",
		what, span.Skipped, span.Spanned, span.Jumps, span.Work, span.Walked)
	if 100*span.Skipped < floor*span.Spanned {
		t.Errorf("%sskipped %d of %d cycles, want at least %d%%", what, span.Skipped, span.Spanned, floor)
	}
}

// twoPhaseDesign feeds one sink from two producers through one banked group
// (Edge.Group), each producer paced by a token loop back to itself. fast has
// 40×127 firings, one every 11 cycles, and completes near cycle 56 000;
// slow has 20×128, one every 49 cycles, and runs to cycle 125 441. While
// both run, the inner levels turn at coprime trips and rates, so the state
// never repeats; once fast is done, slow's inner level repeats every 128
// firings. slow has the fewest firings, so it is the anchor throughout.
func twoPhaseDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	snk := g.AddVU(dfg.VCUCompute, "snk")
	snk.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 40*127 + 20*128}}
	fast := g.AddVU(dfg.VCUCompute, "fast")
	fast.Stages = 1
	fast.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 40}, {Ctrl: ir.CtrlID(3), Trip: 127}}
	slow := g.AddVU(dfg.VCUCompute, "slow")
	slow.Stages = 39
	slow.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(4), Trip: 20}, {Ctrl: ir.CtrlID(5), Trip: 128}}
	for _, p := range []*dfg.VU{fast, slow} {
		g.AddEdge(p.ID, snk.ID, dfg.EData).Group = "in"
		loop := g.AddEdge(p.ID, p.ID, dfg.EToken)
		loop.LCD, loop.Init, loop.Depth = true, 1, 1
	}
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// saturatedReadDesign streams 20 000 reads of 24 lanes (96 B, 1.536 cycles
// of an HBM2 channel) from one VAG to a consumer. The VAG could issue every
// cycle, so its channel stays busy, with as many requests queued as the
// VAG's response buffer admits.
func saturatedReadDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	ag := g.AddVU(dfg.VAG, "rd")
	ag.Lanes = 24
	ag.Acc = -1
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 20000}}
	use := g.AddVU(dfg.VCUCompute, "use")
	use.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 20000}}
	g.AddEdge(ag.ID, use.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// oversubscribedWriteDesign streams 5 000 writes of 48 lanes (192 B, 3.072
// cycles of an HBM2 channel) into one VAG whose acknowledgements nothing
// waits for. The VAG issues about every 2.75 cycles, so its channel's queue
// grows without bound.
func oversubscribedWriteDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := g.AddVU(dfg.VCUCompute, "src")
	src.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 5000}}
	ag := g.AddVU(dfg.VAG, "wr")
	ag.Lanes = 48
	ag.Acc = -1
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 5000}}
	g.AddEdge(src.ID, ag.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}
