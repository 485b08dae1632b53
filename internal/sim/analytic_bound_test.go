package sim_test

import (
	"strings"
	"testing"

	"sara/internal/core"
	"sara/internal/opt"
	"sara/internal/sim"
	"sara/internal/tune"
	"sara/internal/workloads"
)

// boundConfigs is the tuner-representative knob table the ratio ceilings are
// measured over: parallelization factors, an optimization ablation, and a
// DRAM-channel cut — the axes tune.Space sweeps. Compiles skip placement,
// exactly as the tuner compiles candidates.
var boundConfigs = []struct {
	name     string
	par      int
	opts     opt.Options
	channels int // 0 = base
}{
	{"par4-all", 4, opt.All(), 0},
	{"par16-all", 16, opt.All(), 0},
	{"par32-all", 32, opt.All(), 0},
	{"par16-none", 16, opt.Options{Retime: true}, 0},
	{"par32-none", 32, opt.Options{Retime: true}, 0},
	{"par16-all-ch8", 16, opt.All(), 8},
	{"par32-all-ch4", 32, opt.All(), 4},
}

// TestAnalyticRatioCeilings is the autotuner's pruning contract (satellite:
// analytic-model soundness). For every workload, across the tuner's knob
// domain, the analytic model's cycle estimate must stay within the
// documented per-workload ceiling of the event engine's measurement:
//
//	Analytic(d) ≤ tune.MaxAnalyticRatio(workload) × Event(d)
//
// tune.Run divides analytic estimates by that ceiling to obtain a sound
// lower bound on true cycles before pruning a candidate as dominated. A
// workload whose model drifts past its ceiling fails here — and would also
// fail loudly at tune time via the runtime guard on every validated point.
// The ceilings are deliberately loose upper bands (the model is NOT a
// universal lower bound: it overshoots on gda/lstm/sort and undershoots
// several-fold on pr/logreg/sgd); what pruning needs is only that the
// overshoot is bounded and documented.
func TestAnalyticRatioCeilings(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ceiling := tune.MaxAnalyticRatio(w.Name)
			for _, bc := range boundConfigs {
				cfg := core.DefaultConfig()
				cfg.Opt = bc.opts
				cfg.SkipPlace = true
				if bc.channels > 0 {
					spec := *cfg.Spec
					spec.DRAM.Channels = bc.channels
					cfg.Spec = &spec
				}
				prog := w.Build(workloads.Params{Par: bc.par, Scale: 32})
				c, err := core.Compile(prog, cfg)
				if err != nil {
					// A knob combo that does not compile is outside the
					// model's domain: the tuner records such points as
					// errors and never prunes with them.
					t.Logf("%s %s: compile failed (%v), combo out of domain", w.Name, bc.name, err)
					continue
				}
				a, err := sim.Analytic(c.Design())
				if err != nil {
					t.Fatalf("%s %s: analytic: %v", w.Name, bc.name, err)
				}
				ev, err := sim.CycleEngine(c.Design(), 50_000_000, sim.EngineEvent)
				if err != nil {
					t.Fatalf("%s %s: event engine: %v", w.Name, bc.name, err)
				}
				ratio := float64(a.Cycles) / float64(ev.Cycles)
				t.Logf("%s %s: analytic=%d event=%d ratio=%.3f (ceiling %.2f)",
					w.Name, bc.name, a.Cycles, ev.Cycles, ratio, ceiling)
				if ratio > ceiling {
					t.Errorf("%s %s: analytic/event ratio %.3f exceeds documented ceiling %.2f — tune pruning floor unsound; remeasure and update tune.MaxAnalyticRatio",
						w.Name, bc.name, ratio, ceiling)
				}
			}
		})
	}
}

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
