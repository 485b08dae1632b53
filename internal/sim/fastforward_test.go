package sim_test

import (
	"reflect"
	"testing"
	"time"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertFastForwardExact runs d on the event engine with and without the
// steady-state fast-forward and requires a reflect.DeepEqual Result or a
// byte-identical error. It returns the cycles the fast-forward skipped and
// the run length (0 when the run failed).
func assertFastForwardExact(t *testing.T, d *sim.Design, maxCycles int64) (skipped, cycles int64) {
	t.Helper()
	fast, skipped, err := sim.CycleEventSkipped(d, maxCycles)
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
	return skipped, fast.Cycles
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
// without it. The long rf runs must also really skip most of their cycles.
func TestFastForwardExact(t *testing.T) {
	const maxCycles = 30_000_000
	type design struct {
		group, name string
		par, scale  int
		mustSkip    bool // at least 80 % of the run's cycles
	}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{"kernels", name, par, 8, false})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{"kernels", name, 128, 8, false})
	}
	ds = append(ds, design{"solver", "rf", 16, 16, true}, design{"solver", "rf", 32, 16, true},
		design{"solver", "ms", 16, 16, false}, design{"solver", "rf", 64, 32, false},
		design{"solver", "ms", 32, 16, false}, design{"solver", "ms", 64, 16, false})
	for _, name := range workloads.Names() {
		ds = append(ds, design{"serve-hot", name, 8, 16, name == "rf"})
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
			skipped, cycles := assertFastForwardExact(t, d, maxCycles)
			t.Logf("skipped %d of %d cycles", skipped, cycles)
			if k.mustSkip && 5*skipped < 4*cycles {
				t.Errorf("skipped %d of %d cycles, want at least 80%%", skipped, cycles)
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
