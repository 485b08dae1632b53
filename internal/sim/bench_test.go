package sim_test

import (
	"runtime"
	"testing"

	"sara/internal/sim"
)

// BenchmarkSimulate times one event-engine simulation of placed designs
// from both ends of the benchmark: the forwarder-heavy par-128 kernels, the
// two kernels whose steady states drift (snet par 128's long inner loops,
// kmeans par 64's filling DRAM-fed buffer), the short par-16 runs a serving
// hit repeats, and rf par 8 / scale 16 (950 629 cycles, almost all of them
// in a recurring steady state the event engine fast-forwards). Beside the
// time it reports the engine's visits, the state words the fast-forward's
// captures walked, its jumps and those of them over a drifting word per run,
// counts that compare two versions of the engine without host time. The
// profiled legs time what a profiled request pays: CycleProfiled, which
// records every interval and never fast-forwards, on rf par 8 and bs par 16.
// It is the simulator's profiling entry point:
//
//	go test -run '^$' -bench Simulate -cpuprofile cpu.out ./internal/sim/
func BenchmarkSimulate(b *testing.B) {
	for _, k := range []struct {
		name       string
		par, scale int
		profiled   bool
	}{{"rf", 128, 8, false}, {"kmeans", 128, 8, false}, {"snet", 128, 8, false}, {"kmeans", 64, 8, false},
		{"pr", 16, 16, false}, {"bs", 16, 16, false}, {"gda", 16, 16, false}, {"rf", 8, 16, false},
		{"rf", 8, 16, true}, {"bs", 16, 16, true}} {
		k := k
		name := k.name + "/p" + itoa(k.par)
		if k.profiled {
			name += "/profiled"
		}
		b.Run(name, func(b *testing.B) {
			d := compilePlaced(b, k.name, k.par, k.scale)
			b.ReportAllocs()
			b.ResetTimer()
			var fired int64
			var span sim.Span
			for i := 0; i < b.N; i++ {
				var r *sim.Result
				var err error
				if k.profiled {
					r, _, err = sim.CycleProfiled(d, 0, sim.EngineEvent)
				} else {
					r, span, err = sim.CycleEventSpan(d, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
				fired += r.FiredTotal
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/firing")
			if !k.profiled {
				b.ReportMetric(float64(span.Work), "visits/op")
				b.ReportMetric(float64(span.Walked), "words/op")
				b.ReportMetric(float64(span.Jumps), "jumps/op")
				b.ReportMetric(float64(span.Drifts), "drifts/op")
			}
		})
	}
}

// runAllocBytes returns the bytes one simulation of d allocates: the least
// of three runs read after a first, so one-time initialisation is not
// counted. MemStats counts the whole process, and the runtime allocates
// beside a run now and then — chiefly the OS thread it starts when it needs
// one more (runtime.allocm: the m, its g0 and profiling stack, about 5.3 KB;
// a MemProfileRate=1 diff of a run that read 22 520 B against 17 272 B
// shows nothing else), or a fast-forward detector rebuilt after a collection
// emptied its pool. Those only ever add, and a run's own allocation is the
// same every time, so the least reading is the run's.
func runAllocBytes(t *testing.T, d *sim.Design, kind sim.EngineKind) (bytes uint64, cycles int64) {
	t.Helper()
	if _, err := sim.CycleEngine(d, 0, kind); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := sim.CycleEngine(d, 0, kind)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < bytes {
			bytes = n
		}
		cycles = r.Cycles
	}
	return bytes, cycles
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
		// Under the race detector sync.Pool drops pooled values at random, so
		// one run may rebuild the fast-forward detector (about 5.5 KB) that
		// the other got from the pool: only the ceiling holds there.
		if raceEnabled {
			continue
		}
		if diff := float64(lb) - float64(sb); diff > 0.1*float64(sb) || diff < -0.1*float64(sb) {
			t.Errorf("%v: %d-cycle run allocated %d B, %d-cycle run %d B: more than 10%% apart", kind, lc, lb, sc, sb)
		}
	}
}
