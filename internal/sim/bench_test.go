package sim_test

import (
	"runtime"
	"testing"

	"sara/internal/sim"
)

// BenchmarkSimulate times one auto-engine simulation of placed designs from
// both ends of the benchmark: the forwarder-heavy par-128 kernels, the short
// par-16 runs a serving hit repeats, and rf par 8 / scale 16 (950 629
// cycles, almost all of them in a recurring steady state the event engine
// fast-forwards). It is the simulator's profiling entry point:
//
//	go test -run '^$' -bench Simulate -cpuprofile cpu.out ./internal/sim/
func BenchmarkSimulate(b *testing.B) {
	run := func(b *testing.B, d *sim.Design, simulate func(*sim.Design) (*sim.Result, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		var fired int64
		for i := 0; i < b.N; i++ {
			r, err := simulate(d)
			if err != nil {
				b.Fatal(err)
			}
			fired += r.FiredTotal
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/firing")
	}
	for _, k := range []struct {
		name       string
		par, scale int
	}{{"rf", 128, 8}, {"kmeans", 128, 8}, {"pr", 16, 16}, {"bs", 16, 16}, {"gda", 16, 16}, {"rf", 8, 16}} {
		k := k
		b.Run(k.name+"/p"+itoa(k.par), func(b *testing.B) {
			run(b, compilePlaced(b, k.name, k.par, k.scale), func(d *sim.Design) (*sim.Result, error) {
				return sim.CycleEngine(d, 0, sim.EngineAuto)
			})
		})
	}
}

// runAllocBytes returns the bytes one simulation of d allocates, read on a
// second run so one-time initialisation is not counted.
func runAllocBytes(t *testing.T, d *sim.Design, kind sim.EngineKind) (bytes uint64, cycles int64) {
	t.Helper()
	if _, err := sim.CycleEngine(d, 0, kind); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := sim.CycleEngine(d, 0, kind)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, r.Cycles
}

// TestSimAllocationIndependentOfRunLength is the allocation gate: what a run
// allocates is set-up — unit and edge state, the in-flight ring slab, the
// event queues — and nothing per delivered element, so a run four times as
// long allocates the same. (With an append-only pending list per edge the
// long run below allocated 26.5 MB.)
func TestSimAllocationIndependentOfRunLength(t *testing.T) {
	long := compilePlaced(t, "pr", 16, 16)  // 573 588 cycles
	short := compilePlaced(t, "pr", 16, 64) // 143 508 cycles
	for _, kind := range []sim.EngineKind{sim.EngineDense, sim.EngineEvent} {
		lb, lc := runAllocBytes(t, long, kind)
		sb, sc := runAllocBytes(t, short, kind)
		t.Logf("%v: %d B over %d cycles, %d B over %d cycles", kind, lb, lc, sb, sc)
		if lc < 3*sc {
			t.Fatalf("%v: runs of %d and %d cycles do not differ enough in length to tell", kind, lc, sc)
		}
		if lb > 256<<10 {
			t.Errorf("%v: one run allocated %d B, want at most 256 KB", kind, lb)
		}
		if diff := float64(lb) - float64(sb); diff > 0.1*float64(sb) || diff < -0.1*float64(sb) {
			t.Errorf("%v: %d-cycle run allocated %d B, %d-cycle run %d B: more than 10%% apart", kind, lc, lb, sc, sb)
		}
	}
}
