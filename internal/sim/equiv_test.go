package sim_test

import (
	"math/rand"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertEnginesMatch runs a design through both cycle engines and requires
// bit-identical execution reports: the event engine's heaps, wake lists, and
// batch firing must not change a single observable number relative to the
// dense oracle.
func assertEnginesMatch(t *testing.T, d *sim.Design, maxCycles int64) {
	t.Helper()
	evt, err := sim.CycleEngine(d, maxCycles, sim.EngineEvent)
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	den, err := sim.CycleEngine(d, maxCycles, sim.EngineDense)
	if err != nil {
		t.Fatalf("dense engine: %v", err)
	}
	if evt.Cycles != den.Cycles {
		t.Errorf("Cycles: event %d, dense %d", evt.Cycles, den.Cycles)
	}
	if evt.FiredTotal != den.FiredTotal {
		t.Errorf("FiredTotal: event %d, dense %d", evt.FiredTotal, den.FiredTotal)
	}
	if evt.ComputeBusy != den.ComputeBusy {
		t.Errorf("ComputeBusy: event %v, dense %v", evt.ComputeBusy, den.ComputeBusy)
	}
	if evt.DRAM != den.DRAM {
		t.Errorf("DRAM: event %+v, dense %+v", evt.DRAM, den.DRAM)
	}
	for _, kind := range []string{"input-starved", "output-blocked", "token-wait"} {
		if evt.Stalls[kind] != den.Stalls[kind] {
			t.Errorf("Stalls[%s]: event %d, dense %d", kind, evt.Stalls[kind], den.Stalls[kind])
		}
	}
	if len(evt.TopUnits) != len(den.TopUnits) {
		t.Fatalf("TopUnits: event %d entries, dense %d", len(evt.TopUnits), len(den.TopUnits))
	}
	for i := range evt.TopUnits {
		if evt.TopUnits[i] != den.TopUnits[i] {
			t.Errorf("TopUnits[%d]: event %+v, dense %+v", i, evt.TopUnits[i], den.TopUnits[i])
		}
	}
}

// TestEngineEquivalenceWorkloads drains every registered benchmark through
// both engines and requires identical results — the acceptance gate for the
// event engine.
func TestEngineEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Build(workloads.Params{Par: 4, Scale: 64})
			cfg := core.DefaultConfig()
			cfg.SkipPlace = true
			c, err := core.Compile(prog, cfg)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			assertEnginesMatch(t, c.Design(), 30_000_000)
		})
	}
}

// compilePlaced builds one registered workload the way the benchmark and the
// daemon do: default configuration, placement on, so stream latencies are
// routed hop counts rather than the flat SkipPlace distance.
func compilePlaced(tb testing.TB, name string, par, scale int) *sim.Design {
	tb.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := core.Compile(w.Build(workloads.Params{Par: par, Scale: scale}), core.DefaultConfig())
	if err != nil {
		tb.Fatalf("Compile %s par %d scale %d: %v", name, par, scale, err)
	}
	return c.Design()
}

// TestEngineEquivalenceKernels holds both engines to one another on the
// designs the benchmark's `kernels` workload simulates: every registered
// workload placed at par 64 / scale 8 (sort at 32: par 64 needs more AGs than
// the chip has) plus the four par-128 designs, where merge trees and VMUs are
// most of the unit evaluations — the regime TestEngineEquivalenceWorkloads'
// unplaced par-4 designs never reach.
func TestEngineEquivalenceKernels(t *testing.T) {
	type kernel struct {
		name string
		par  int
	}
	var ks []kernel
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ks = append(ks, kernel{name, par})
	}
	if !testing.Short() { // dense rf par 128 alone takes over a second
		for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
			ks = append(ks, kernel{name, 128})
		}
	}
	for _, k := range ks {
		k := k
		t.Run(k.name+"/p"+itoa(k.par), func(t *testing.T) {
			d := compilePlaced(t, k.name, k.par, 8)
			assertEnginesMatch(t, d, 30_000_000)
		})
	}
}

// TestEngineEquivalenceSynthetic covers shapes the workload suite
// under-represents: deep single streams, tiled reuse with credit loops, and
// randomly generated pipelines (including dynamic control flow).
func TestEngineEquivalenceSynthetic(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		c, err := core.Compile(streamProg(4096, 4), core.DefaultConfig())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		assertEnginesMatch(t, c.Design(), 20_000_000)
	})
	t.Run("tiled", func(t *testing.T) {
		c, err := core.Compile(tiledProg(8, 64, 2), core.DefaultConfig())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		assertEnginesMatch(t, c.Design(), 20_000_000)
	})
	t.Run("long-haul", func(t *testing.T) {
		d := longHaulDesign()
		r, err := sim.CycleEngine(d, 20_000_000, sim.EngineEvent)
		if err != nil || r.Cycles < 3000+4002 {
			t.Fatalf("long-haul run: %+v, %v: want at least fill latency + 3000 cycles", r, err)
		}
		assertEnginesMatch(t, d, 20_000_000)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 8; trial++ {
			c, err := core.Compile(randomProgram(rng, trial), core.DefaultConfig())
			if err != nil {
				t.Fatalf("trial %d: Compile: %v", trial, err)
			}
			assertEnginesMatch(t, c.Design(), 20_000_000)
		}
	})
	t.Run("control", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for trial := 0; trial < 6; trial++ {
			c, err := core.Compile(randomControlProgram(rng), core.DefaultConfig())
			if err != nil {
				t.Fatalf("trial %d: Compile: %v", trial, err)
			}
			assertEnginesMatch(t, c.Design(), 20_000_000)
		}
	})
}

// longHaulDesign streams 3000 elements over one 4096-deep edge 2000 hops
// long: every arrival lies more than a turn of the event engine's calendar
// wheel ahead (its overflow heap), and 3000 elements are in flight at once,
// more than the in-flight ring an edge starts with (it grows twice).
func longHaulDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := g.AddVU(dfg.VCUCompute, "src")
	src.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 3000}}
	snk := g.AddVU(dfg.VCUCompute, "snk")
	snk.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 3000}}
	g.AddEdge(src.ID, snk.ID, dfg.EData).Depth = 4096
	spec := arch.SARA20x20()
	spec.DefaultStreamHops = 2000
	return &sim.Design{G: g, Spec: spec}
}

// deadlockDesign hand-builds a VUDFG that starves: unit A holds one initial
// credit and needs a token back per firing, but unit B only returns tokens
// when its 4-deep counter wraps — and A can never feed it 4 elements on one
// credit. Both engines must report the deadlock, at the same cycle, with the
// same diagnosis.
func deadlockDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	a := g.AddVU(dfg.VCUCompute, "a")
	a.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 8}}
	b := g.AddVU(dfg.VCUCompute, "b")
	b.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 4}}
	data := g.AddEdge(a.ID, b.ID, dfg.EData)
	data.Depth = 4
	tok := g.AddEdge(b.ID, a.ID, dfg.EToken)
	tok.LCD = true
	tok.Init = 1
	tok.PushCtrl = ir.CtrlID(2) // token returns only when B's counter wraps
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// bankStarvedDesign starves a consumer on a banked response group: two bank
// units feed one logical stream (Edge.Group) two elements each and complete,
// the consumer wants eight. Every unit still live is stuck on an inAny group
// alone, the one input kind the deadlock diagnosis used to skip.
func bankStarvedDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	c := g.AddVU(dfg.VCUCompute, "c")
	c.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 8}}
	for i, name := range []string{"bank0", "bank1"} {
		b := g.AddVU(dfg.VCUCompute, name)
		b.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2 + i), Trip: 2}}
		g.AddEdge(b.ID, c.ID, dfg.EData).Group = "resp"
	}
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// drainedSinkDesign stops with a forwarder's move as its last progress — a
// memory port with no response stream swallows two elements — while a
// starved pair keeps the run from completing. Nothing is scheduled after that
// move, so the event engines must work out for themselves where the dense
// engine's first idle cycle falls, and whether the cycle limit lets it get
// there.
func drainedSinkDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := g.AddVU(dfg.VCUCompute, "src")
	src.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 2}}
	mem := g.AddVU(dfg.VMU, "mem")
	g.AddEdge(src.ID, mem.ID, dfg.EData).Label = "src.mem"
	a := g.AddVU(dfg.VCUCompute, "a")
	a.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 1}}
	b := g.AddVU(dfg.VCUCompute, "b")
	b.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(3), Trip: 1}}
	g.AddEdge(a.ID, b.ID, dfg.EData).Label = "a.b"
	back := g.AddEdge(b.ID, a.ID, dfg.EData)
	back.LCD = true
	back.Label = "b.a"
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// fullBufferDeadlockDesign is the second deadlock shape: a producer/consumer
// pair where the consumer holds a do-while style hold-in it can never
// satisfy, so the intermediate buffer fills and the producer parks
// output-blocked forever.
func fullBufferDeadlockDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	a := g.AddVU(dfg.VCUCompute, "src")
	a.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 64}}
	b := g.AddVU(dfg.VCUCompute, "snk")
	b.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 64}}
	data := g.AddEdge(a.ID, b.ID, dfg.EData)
	data.Depth = 3
	gate := g.AddEdge(a.ID, b.ID, dfg.EToken)
	gate.PushCtrl = ir.CtrlID(1) // only granted when src's counter wraps — never reached
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// assertSameOutcome requires both engines to agree on a design that may not
// complete: either both finish and the Results are identical, or both fail
// with a byte-identical error string.
func assertSameOutcome(t *testing.T, d *sim.Design, maxCycles int64) {
	t.Helper()
	_, evtErr := sim.CycleEngine(d, maxCycles, sim.EngineEvent)
	if evtErr == nil {
		assertEnginesMatch(t, d, maxCycles)
		return
	}
	if _, err := sim.CycleEngine(d, maxCycles, sim.EngineDense); err == nil || err.Error() != evtErr.Error() {
		t.Errorf("outcomes differ:\n event: %v\n dense: %v", evtErr, err)
	}
}

// TestEngineEquivalenceDeadlock asserts both engines detect the starvation
// at the same cycle with identical diagnostics, then holds both engines to
// one outcome on further designs that do not complete.
func TestEngineEquivalenceDeadlock(t *testing.T) {
	_, evtErr := sim.CycleEngine(deadlockDesign(), 1_000_000, sim.EngineEvent)
	_, denErr := sim.CycleEngine(deadlockDesign(), 1_000_000, sim.EngineDense)
	if evtErr == nil || denErr == nil {
		t.Fatalf("expected deadlock from both engines: event=%v dense=%v", evtErr, denErr)
	}
	if !strings.Contains(evtErr.Error(), "deadlock at cycle") {
		t.Errorf("event error lacks deadlock diagnosis: %v", evtErr)
	}
	if evtErr.Error() != denErr.Error() {
		t.Errorf("deadlock reports differ:\n event: %v\n dense: %v", evtErr, denErr)
	}

	// A unit starved on a banked response group is named in the report.
	t.Run("bank-starved", func(t *testing.T) {
		d := bankStarvedDesign()
		_, err := sim.CycleEngine(d, 1_000_000, sim.EngineEvent)
		if err == nil || !strings.Contains(err.Error(), "; c waits on resp (fired 4/8)") {
			t.Errorf("deadlock report does not name the starved group: %v", err)
		}
		assertSameOutcome(t, d, 1_000_000)
	})
	// A producer parked output-blocked forever on a full buffer.
	t.Run("full-buffer", func(t *testing.T) {
		assertSameOutcome(t, fullBufferDeadlockDesign(), 1_000_000)
	})
	// The deadlock cycle is one past the last progress even when that progress
	// was a forwarder draining its input, and a cycle limit at or below it
	// turns the report into "exceeded" on every engine alike.
	t.Run("cycle-limit", func(t *testing.T) {
		d := drainedSinkDesign()
		_, err := sim.CycleEngine(d, 1_000_000, sim.EngineEvent)
		if err == nil || !strings.Contains(err.Error(), "deadlock at cycle 12:") {
			t.Fatalf("expected deadlock at cycle 12, got: %v", err)
		}
		for limit := int64(9); limit <= 15; limit++ {
			assertSameOutcome(t, d, limit)
		}
	})
	// Compiled designs rich in forwarders (merge trees, VMUs, retiming), where
	// the last productive step before the machine stops is usually a
	// forwarder's. Non-power-of-two pars deadlock them today (ROADMAP item 1);
	// the rule holds before and after that fix.
	for _, k := range []struct {
		name       string
		par, scale int
	}{{"kmeans", 96, 16}, {"rf", 48, 64}} {
		k := k
		t.Run(k.name+"/p"+itoa(k.par), func(t *testing.T) {
			assertSameOutcome(t, compilePlaced(t, k.name, k.par, k.scale), 30_000_000)
		})
	}
}

// TestStallFreeFastPath is the guard for the analytic fast path: with the
// skip disabled, every workload must produce a bit-identical report —
// proving the elided bookkeeping is a no-op on proven-stall-free units.
func TestStallFreeFastPath(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			fast, err := sim.CycleEngine(d, 30_000_000, sim.EngineEvent)
			if err != nil {
				t.Fatalf("event engine: %v", err)
			}
			slow, err := sim.CycleEngineNoFastPath(d, 30_000_000)
			if err != nil {
				t.Fatalf("event engine (fast path off): %v", err)
			}
			if fast.Cycles != slow.Cycles || fast.FiredTotal != slow.FiredTotal {
				t.Fatalf("fast path diverged: cycles %d/%d fired %d/%d",
					fast.Cycles, slow.Cycles, fast.FiredTotal, slow.FiredTotal)
			}
			for _, kind := range []string{"input-starved", "output-blocked", "token-wait"} {
				if fast.Stalls[kind] != slow.Stalls[kind] {
					t.Errorf("Stalls[%s]: fast %d, slow %d", kind, fast.Stalls[kind], slow.Stalls[kind])
				}
			}
			for i := range fast.TopUnits {
				if fast.TopUnits[i] != slow.TopUnits[i] {
					t.Errorf("TopUnits[%d]: fast %+v, slow %+v", i, fast.TopUnits[i], slow.TopUnits[i])
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
