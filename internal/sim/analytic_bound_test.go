package sim_test

import (
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// TestAnalyticSoundOnDeadlocks covers the degenerate end of the contract:
// on designs whose event-engine run never completes (both deadlock shapes —
// credit starvation and a full-buffer cycle), any finite analytic estimate
// trivially lower-bounds the infinite true cycle count, so the tuner may
// prune against validated points but can never validate these (the cycle
// engine reports the deadlock as an error and the point is recorded as
// StatusError, keeping it off the front).
func TestAnalyticSoundOnDeadlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *sim.Design
	}{
		{"credit-starved", deadlockDesign()},
		{"full-buffer-cycle", fullBufferDeadlockDesign()},
	} {
		a, err := sim.Analytic(tc.d)
		if err != nil {
			t.Fatalf("%s: analytic should produce a finite estimate, got error %v", tc.name, err)
		}
		if a.Cycles <= 0 {
			t.Errorf("%s: analytic cycles = %d, want positive finite estimate", tc.name, a.Cycles)
		}
		_, err = sim.CycleEngine(tc.d, 1_000_000, sim.EngineEvent)
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: event engine should report the deadlock, got err=%v", tc.name, err)
		}
	}
}

// TestAnalyticRepeatable: the analytic model is a function of the design.
// Its finish-time DP visits units in dfg.TopoSort order and a multi-port VMU
// "at its first ready port", so when TopoSort seeded its queue in map order
// the estimate moved from call to call on one compiled design — lstm par 64
// read 1623, 1644 and 1652, gda par 16 read 16445 or 32829 — under a tuner
// that prunes on it.
func TestAnalyticRepeatable(t *testing.T) {
	type design struct {
		name       string
		par, scale int
		skipPlace  bool
	}
	ds := []design{{"lstm", 64, 8, false}}
	for _, name := range workloads.Names() {
		ds = append(ds, design{name, 16, 16, true})
	}
	for _, k := range ds {
		w, err := workloads.ByName(k.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.SkipPlace = k.skipPlace
		c, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), cfg)
		if err != nil {
			t.Fatalf("%s par %d: %v", k.name, k.par, err)
		}
		var first int64
		for i := 0; i < 20; i++ {
			r, err := sim.Analytic(c.Design())
			if err != nil {
				t.Fatalf("%s par %d: %v", k.name, k.par, err)
			}
			if i == 0 {
				first = r.Cycles
			} else if r.Cycles != first {
				t.Fatalf("%s par %d: call %d estimates %d cycles, call 0 estimated %d", k.name, k.par, i, r.Cycles, first)
			}
		}
	}
}
