package sim_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertParallelMatches runs a design through the serial event engine and
// the sharded parallel engine at several worker counts and requires
// bit-identical reports. Run with -race, this is also the data-race gate for
// the barrier protocol and the cross-shard edge halves.
func assertParallelMatches(t *testing.T, d *sim.Design, maxCycles int64) {
	t.Helper()
	evt, err := sim.CycleEngine(d, maxCycles, sim.EngineEvent)
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		par, err := sim.CycleParallel(d, maxCycles, workers)
		if err != nil {
			t.Fatalf("parallel engine (workers=%d): %v", workers, err)
		}
		if par.Engine != "parallel" {
			t.Fatalf("workers=%d: Engine = %q, want parallel", workers, par.Engine)
		}
		if par.Par == nil || par.Par.Shards < 1 {
			t.Fatalf("workers=%d: missing ParStats: %+v", workers, par.Par)
		}
		if par.Cycles != evt.Cycles {
			t.Errorf("workers=%d: Cycles: parallel %d, event %d", workers, par.Cycles, evt.Cycles)
		}
		if par.FiredTotal != evt.FiredTotal {
			t.Errorf("workers=%d: FiredTotal: parallel %d, event %d", workers, par.FiredTotal, evt.FiredTotal)
		}
		if par.ComputeBusy != evt.ComputeBusy {
			t.Errorf("workers=%d: ComputeBusy: parallel %v, event %v", workers, par.ComputeBusy, evt.ComputeBusy)
		}
		if par.DRAM != evt.DRAM {
			t.Errorf("workers=%d: DRAM: parallel %+v, event %+v", workers, par.DRAM, evt.DRAM)
		}
		for _, kind := range []string{"input-starved", "output-blocked", "token-wait"} {
			if par.Stalls[kind] != evt.Stalls[kind] {
				t.Errorf("workers=%d: Stalls[%s]: parallel %d, event %d", workers, kind, par.Stalls[kind], evt.Stalls[kind])
			}
		}
		if len(par.TopUnits) != len(evt.TopUnits) {
			t.Fatalf("workers=%d: TopUnits: parallel %d entries, event %d", workers, len(par.TopUnits), len(evt.TopUnits))
		}
		for i := range par.TopUnits {
			if par.TopUnits[i] != evt.TopUnits[i] {
				t.Errorf("workers=%d: TopUnits[%d]: parallel %+v, event %+v", workers, i, par.TopUnits[i], evt.TopUnits[i])
			}
		}
	}
}

// atGOMAXPROCS reruns f under each requested GOMAXPROCS so the windows,
// barrier, and goroutine scheduling get exercised both truly concurrently
// and fully serialized. Results must not depend on the setting.
func atGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	procs := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() <= 2 {
		procs = procs[:2]
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		p := p
		t.Run("procs="+itoa(p), func(t *testing.T) {
			runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(orig)
			f(t)
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

// TestParallelEquivalenceWorkloads is the acceptance gate for the parallel
// engine: every registered workload, bit-identical to the serial event
// engine at GOMAXPROCS 1, 2, and NumCPU and at 1, 2, and 4 workers.
func TestParallelEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			atGOMAXPROCS(t, func(t *testing.T) {
				assertParallelMatches(t, d, 30_000_000)
			})
		})
	}
}

// TestParallelEquivalenceSynthetic covers the same awkward shapes as the
// event-vs-dense suite: deep streams, tiled credit loops, random pipelines,
// and dynamic control flow.
func TestParallelEquivalenceSynthetic(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		c, err := core.Compile(streamProg(4096, 4), core.DefaultConfig())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		assertParallelMatches(t, c.Design(), 20_000_000)
	})
	t.Run("tiled", func(t *testing.T) {
		c, err := core.Compile(tiledProg(8, 64, 2), core.DefaultConfig())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		assertParallelMatches(t, c.Design(), 20_000_000)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 8; trial++ {
			c, err := core.Compile(randomProgram(rng, trial), core.DefaultConfig())
			if err != nil {
				t.Fatalf("trial %d: Compile: %v", trial, err)
			}
			assertParallelMatches(t, c.Design(), 20_000_000)
		}
	})
	t.Run("control", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for trial := 0; trial < 6; trial++ {
			c, err := core.Compile(randomControlProgram(rng), core.DefaultConfig())
			if err != nil {
				t.Fatalf("trial %d: Compile: %v", trial, err)
			}
			assertParallelMatches(t, c.Design(), 20_000_000)
		}
	})
}

// fullBufferDeadlockDesign is the second deadlock shape: a producer/consumer
// pair where the consumer holds a do-while style hold-in it can never
// satisfy, so the intermediate buffer fills and the producer parks
// output-blocked forever — the cut-edge-full path of the parallel engine
// (W=0, merged-serial cycles) must diagnose it exactly like the serial one.
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

// TestParallelDeadlock asserts the parallel engine reports both deadlock
// designs at the same cycle with the same diagnosis as the serial engine, at
// every worker count.
func TestParallelDeadlock(t *testing.T) {
	designs := map[string]func() *sim.Design{
		"credit-starved": deadlockDesign,
		"full-buffer":    fullBufferDeadlockDesign,
		"bank-starved":   bankStarvedDesign,
	}
	for name, mk := range designs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			_, evtErr := sim.CycleEngine(mk(), 1_000_000, sim.EngineEvent)
			if evtErr == nil {
				t.Fatal("expected deadlock from event engine")
			}
			if !strings.Contains(evtErr.Error(), "deadlock at cycle") {
				t.Fatalf("event error lacks deadlock diagnosis: %v", evtErr)
			}
			atGOMAXPROCS(t, func(t *testing.T) {
				for _, workers := range []int{1, 2, 4} {
					_, parErr := sim.CycleParallel(mk(), 1_000_000, workers)
					if parErr == nil {
						t.Fatalf("workers=%d: expected deadlock from parallel engine", workers)
					}
					if parErr.Error() != evtErr.Error() {
						t.Errorf("workers=%d: deadlock reports differ:\n parallel: %v\n event:    %v", workers, parErr, evtErr)
					}
				}
			})
		})
	}
}

// TestParallelProfiled checks the merged per-shard recording against the
// parallel Result: interval stall sums must reproduce Result.Stalls exactly,
// and the Result itself must still match the serial engine.
func TestParallelProfiled(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			evt, err := sim.CycleEngine(d, 30_000_000, sim.EngineEvent)
			if err != nil {
				t.Fatalf("event engine: %v", err)
			}
			// The profiled path sizes its shard count from GOMAXPROCS; run at
			// each setting so single-shard and merged multi-shard recordings
			// are both covered even on small machines.
			atGOMAXPROCS(t, func(t *testing.T) {
				r, rec, err := sim.CycleProfiled(d, 30_000_000, sim.EngineParallel)
				if err != nil {
					t.Fatalf("CycleProfiled(parallel): %v", err)
				}
				if r.Cycles != evt.Cycles || r.FiredTotal != evt.FiredTotal {
					t.Fatalf("profiled parallel diverged: cycles %d/%d fired %d/%d",
						r.Cycles, evt.Cycles, r.FiredTotal, evt.FiredTotal)
				}
				if rec.Cycles != r.Cycles {
					t.Errorf("recording cycles %d, result %d", rec.Cycles, r.Cycles)
				}
				sums := rec.CoarseStallSums()
				for _, kind := range []string{"input-starved", "output-blocked", "token-wait"} {
					if sums[kind] != r.Stalls[kind] {
						t.Errorf("stall sums[%s]: recording %d, result %d", kind, sums[kind], r.Stalls[kind])
					}
				}
				for _, tr := range rec.Live() {
					for i, iv := range tr.Intervals {
						if iv.End > rec.Cycles {
							t.Errorf("track %q interval %d ends at %d past run end %d", tr.Name, i, iv.End, rec.Cycles)
						}
						if i > 0 && iv.Start < tr.Intervals[i-1].End {
							t.Errorf("track %q interval %d overlaps predecessor", tr.Name, i)
						}
					}
				}
			})
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
