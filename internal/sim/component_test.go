package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertComponentsExact runs d on the event engine, which runs independent
// components one after another, and as one loop over the whole design, and
// requires a reflect.DeepEqual Result or a byte-identical error. It returns
// the component count (0: the engine ran d as one loop), the cycles the
// fast-forward skipped and the cycles the component runs covered.
func assertComponentsExact(t *testing.T, d *sim.Design, maxCycles int64) (comps int, skipped, spanned int64) {
	t.Helper()
	comps, err := sim.ComponentCount(d)
	if err != nil {
		t.Fatal(err)
	}
	split, span, err := sim.CycleEventSpan(d, maxCycles)
	whole, wholeErr := sim.CycleEventSingleLoop(d, maxCycles)
	switch {
	case err != nil || wholeErr != nil:
		if err == nil || wholeErr == nil || err.Error() != wholeErr.Error() {
			t.Errorf("outcomes differ:\n components:  %v\n single loop: %v", err, wholeErr)
		}
	case !reflect.DeepEqual(split, whole):
		t.Errorf("Results differ:\n components:  %+v\n single loop: %+v", split, whole)
	}
	return comps, span.Skipped, span.Spanned
}

// TestComponentRunsExact holds the event engine's component runs to its single
// loop on every design TestFastForwardExact lists, on the deadlocking and
// capped ones, and on hand-built designs where the split must fall back or
// must merge over a shared DRAM channel. pr p64/s8, whose instances drift out
// of phase, must fast-forward through most of its components' cycles.
func TestComponentRunsExact(t *testing.T) {
	const maxCycles = 30_000_000
	type design struct {
		name       string
		par, scale int
		solver     bool
	}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{name, par, 8, false})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{name, 128, 8, false})
	}
	ds = append(ds, design{"rf", 16, 16, true}, design{"rf", 32, 16, true},
		design{"ms", 16, 16, true}, design{"rf", 64, 32, true},
		design{"ms", 32, 16, true}, design{"ms", 64, 16, true})
	for _, name := range workloads.Names() {
		ds = append(ds, design{name, 8, 16, false})
	}
	for _, k := range ds {
		k := k
		name := k.name + "/p" + itoa(k.par) + "/s" + itoa(k.scale)
		if k.solver {
			name += "/solver"
		}
		t.Run(name, func(t *testing.T) {
			var d *sim.Design
			if k.solver {
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
			comps, skipped, spanned := assertComponentsExact(t, d, maxCycles)
			t.Logf("%d components; skipped %d of %d cycles", comps, skipped, spanned)
			if k.name == "pr" && k.par == 64 && k.scale == 8 {
				if comps < 2 {
					t.Errorf("pr p64/s8 runs as %d components, want several", comps)
				}
				if 10*skipped < 7*spanned {
					t.Errorf("skipped %d of %d cycles, want at least 70%%", skipped, spanned)
				}
			}
		})
	}
	t.Run("deadlock", func(t *testing.T) {
		assertComponentsExact(t, deadlockDesign(), 1_000_000)
		assertComponentsExact(t, bankStarvedDesign(), 1_000_000)
		assertComponentsExact(t, fullBufferDeadlockDesign(), 1_000_000)
		for limit := int64(1); limit <= 15; limit++ {
			assertComponentsExact(t, drainedSinkDesign(), limit)
		}
		assertComponentsExact(t, compilePlaced(t, "kmeans", 96, 16), maxCycles)
		assertComponentsExact(t, compilePlaced(t, "rf", 48, 64), maxCycles)
	})
	t.Run("cap", func(t *testing.T) {
		assertComponentsExact(t, compilePlaced(t, "rf", 8, 16), 700_000)
	})
	t.Run("crossbar-grid", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.SkipPlace = true
		for _, outer := range []int{2, 3, 4, 5, 6, 7, 8} {
			for _, n := range []int{12, 24, 60, 64, 100, 210, 256, 420, 840, 1024} {
				c, err := core.Compile(crossbarProg(outer, n), cfg)
				if err != nil {
					t.Fatalf("outer %d n %d: compile: %v", outer, n, err)
				}
				assertComponentsExact(t, c.Design(), 10_000_000)
			}
		}
	})
	t.Run("no-counter-driven-unit", func(t *testing.T) {
		d := forwarderOnlyDesign()
		if n, _ := sim.ComponentCount(d); n != 0 {
			t.Errorf("runs as %d components, want one loop", n)
		}
		for limit := int64(1); limit <= 3; limit++ {
			assertComponentsExact(t, d, limit)
			assertSameOutcome(t, d, limit)
		}
	})
	t.Run("zero-trip-counter", func(t *testing.T) {
		d := zeroTripDesign()
		_, evtErr := sim.CycleEngine(d, 1_000_000, sim.EngineEvent)
		_, denseErr := sim.CycleEngine(d, 1_000_000, sim.EngineDense)
		if evtErr == nil || !strings.Contains(evtErr.Error(), "trip 0") {
			t.Fatalf("event engine: %v, want a refused zero trip", evtErr)
		}
		if denseErr == nil || denseErr.Error() != evtErr.Error() {
			t.Errorf("refusals differ:\n event: %v\n dense: %v", evtErr, denseErr)
		}
	})
	// Two VAG pipelines of different lengths: split on two channels, one
	// component on a shared one.
	t.Run("dram-channels", func(t *testing.T) {
		for channels, want := range map[int]int{1: 0, 2: 2} {
			d := twoStreamDesign(channels)
			if n, _ := sim.ComponentCount(d); n != want {
				t.Errorf("%d channels: %d components, want %d", channels, n, want)
			}
			assertComponentsExact(t, d, 1_000_000)
		}
	})
}

// forwarderOnlyDesign has no counter-driven unit: two memory units joined by
// a stream and a third on its own. Nothing needs to complete, so a run is
// one cycle.
func forwarderOnlyDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	a := g.AddVU(dfg.VMU, "a")
	b := g.AddVU(dfg.VMU, "b")
	g.AddEdge(a.ID, b.ID, dfg.EData)
	g.AddVU(dfg.VMU, "c")
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// zeroTripDesign puts a unit whose counter never iterates beside an
// independent producer/consumer pair: a graph dfg.Graph.Validate refuses.
func zeroTripDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	z := g.AddVU(dfg.VCUCompute, "zero")
	z.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 0}}
	src := g.AddVU(dfg.VCUCompute, "src")
	src.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 40}}
	snk := g.AddVU(dfg.VCUCompute, "snk")
	snk.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(3), Trip: 40}}
	g.AddEdge(src.ID, snk.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// twoStreamDesign streams from DRAM through two independent VAG → consumer
// pipelines of 300 and 500 elements over the given number of channels.
func twoStreamDesign(channels int) *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	for i, trip := range []int{300, 500} {
		ag := g.AddVU(dfg.VAG, "ag"+itoa(i))
		ag.Lanes = 16
		ag.Acc = dramStream(g, ir.Read, "ag"+itoa(i))
		ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1 + 2*i), Trip: trip}}
		c := g.AddVU(dfg.VCUCompute, "c"+itoa(i))
		c.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2 + 2*i), Trip: trip}}
		g.AddEdge(ag.ID, c.ID, dfg.EData).Depth = 4
	}
	spec := arch.SARA20x20()
	spec.DRAM.Channels = channels
	return &sim.Design{G: g, Spec: spec}
}
