package sim_test

import (
	"reflect"
	"testing"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertFastForwardExact runs d on the event engine with and without the
// steady-state fast-forward and requires a reflect.DeepEqual Result or a
// byte-identical error. It returns the cycles the fast-forward skipped and
// the cycles the engine's runs covered, summed over the design's components
// (0 when the run failed).
func assertFastForwardExact(t *testing.T, d *sim.Design, maxCycles int64) (skipped, spanned int64) {
	t.Helper()
	fast, skipped, spanned, err := sim.CycleEventSpan(d, maxCycles)
	slow, slowErr := sim.CycleEngineNoFastPath(d, maxCycles)
	switch {
	case err != nil || slowErr != nil:
		if err == nil || slowErr == nil || err.Error() != slowErr.Error() {
			t.Errorf("outcomes differ:\n fast-forward: %v\n reference:    %v", err, slowErr)
		}
		return skipped, 0
	case !reflect.DeepEqual(fast, slow):
		t.Errorf("Results differ:\n fast-forward: %+v\n reference:    %+v", fast, slow)
	}
	return skipped, spanned
}

// solverConfig compiles the way the benchmark's solver workload does: MIP
// partition and merge, each capped at 60 branch-and-bound nodes, serial.
func solverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Partition.Algo, cfg.Merge.Algo = partition.AlgoSolver, partition.AlgoSolver
	cfg.Partition.Gap, cfg.Merge.Gap = 0.15, 0.15
	cfg.Partition.MaxNodes, cfg.Merge.MaxNodes = 60, 60
	cfg.Partition.TimeLimit, cfg.Merge.TimeLimit = 10*time.Minute, 10*time.Minute
	cfg.Partition.Workers, cfg.Merge.Workers = 1, 1
	return cfg
}

// TestFastForwardExact is the fast-forward's guard: on every design the
// benchmark simulates for long, on the deadlocking designs, and under a cycle
// cap inside a skipped stretch, the run must be indistinguishable from one
// without it. The long rf runs must also really skip most of their cycles,
// and so must logreg and pr at p64/s8, which skip only by capturing states
// whose DRAM channels are still busy.
func TestFastForwardExact(t *testing.T) {
	const maxCycles = 30_000_000
	type design struct {
		group, name string
		par, scale  int
		mustSkip    int64 // percent of the spanned cycles skipped, at least
	}
	floors := map[string]int64{"logreg": 60, "pr": 90}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{"kernels", name, par, 8, floors[name]})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{"kernels", name, 128, 8, 0})
	}
	ds = append(ds, design{"solver", "rf", 16, 16, 80}, design{"solver", "rf", 32, 16, 80},
		design{"solver", "ms", 16, 16, 0}, design{"solver", "rf", 64, 32, 0},
		design{"solver", "ms", 32, 16, 0}, design{"solver", "ms", 64, 16, 0})
	for _, name := range workloads.Names() {
		var floor int64
		if name == "rf" {
			floor = 80
		}
		ds = append(ds, design{"serve-hot", name, 8, 16, floor})
	}
	for _, k := range ds {
		k := k
		t.Run(k.group+"/"+k.name+"/p"+itoa(k.par), func(t *testing.T) {
			var d *sim.Design
			if k.group == "solver" {
				w, err := workloads.ByName(k.name)
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), solverConfig())
				if err != nil {
					t.Fatal(err)
				}
				d = c.Design()
			} else {
				d = compilePlaced(t, k.name, k.par, k.scale)
			}
			skipped, spanned := assertFastForwardExact(t, d, maxCycles)
			t.Logf("skipped %d of %d cycles", skipped, spanned)
			if 100*skipped < k.mustSkip*spanned {
				t.Errorf("skipped %d of %d cycles, want at least %d%%", skipped, spanned, k.mustSkip)
			}
		})
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
		skipped, spanned := assertFastForwardExact(t, saturatedReadDesign(), 1_000_000)
		t.Logf("saturated read: skipped %d of %d cycles", skipped, spanned)
		if 5*skipped < 2*spanned {
			t.Errorf("saturated read: skipped %d of %d cycles, want at least 40%%", skipped, spanned)
		}
		skipped, spanned = assertFastForwardExact(t, oversubscribedWriteDesign(), 1_000_000)
		t.Logf("oversubscribed write: skipped %d of %d cycles", skipped, spanned)
	})
	// rf p8/s16 runs 950 629 cycles and skips most of them; a cap of 700 000
	// falls inside the longest skipped stretch, so the jump must stop short
	// of it and the run end in the same "exceeded" error.
	t.Run("cap", func(t *testing.T) {
		d := compilePlaced(t, "rf", 8, 16)
		skipped, _ := assertFastForwardExact(t, d, 700_000)
		if skipped == 0 {
			t.Error("no cycle skipped before the cap")
		}
		if _, err := sim.CycleEngine(d, 700_000, sim.EngineEvent); err == nil ||
			err.Error() != "sim: exceeded 700000 cycles without completing" {
			t.Errorf("capped run: %v", err)
		}
	})
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
