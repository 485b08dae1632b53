package sim_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"sara/internal/core"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// compileWorkload builds one registered workload into a runnable design.
func compileWorkload(t *testing.T, w *workloads.Workload) *sim.Design {
	t.Helper()
	prog := w.Build(workloads.Params{Par: 4, Scale: 64})
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	c, err := core.Compile(prog, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c.Design()
}

// assertProfileExact is the profiler's accounting gate for one design on one
// engine: the recording's coarse stall sums must equal Result.Stalls
// cycle-for-cycle, the profiled Result must be bit-identical to an unprofiled
// run, busy intervals must reproduce FiredTotal, and every track must be a
// sorted, disjoint timeline inside [0, Cycles]. It returns the recording.
func assertProfileExact(t *testing.T, d *sim.Design, kind sim.EngineKind, maxCycles int64) *profile.Recording {
	t.Helper()
	plain, err := sim.CycleEngine(d, maxCycles, kind)
	if err != nil {
		t.Fatalf("CycleEngine: %v", err)
	}
	r, rec, err := sim.CycleProfiled(d, maxCycles, kind)
	if err != nil {
		t.Fatalf("CycleProfiled: %v", err)
	}

	// Profiling must not perturb the simulation.
	if r.Cycles != plain.Cycles || r.FiredTotal != plain.FiredTotal || r.DRAM != plain.DRAM {
		t.Errorf("profiled run diverged: cycles %d vs %d, fired %d vs %d, dram %+v vs %+v",
			r.Cycles, plain.Cycles, r.FiredTotal, plain.FiredTotal, r.DRAM, plain.DRAM)
	}
	for _, k := range []string{"input-starved", "output-blocked", "token-wait"} {
		if r.Stalls[k] != plain.Stalls[k] {
			t.Errorf("profiled Stalls[%s] = %d, unprofiled %d", k, r.Stalls[k], plain.Stalls[k])
		}
	}

	// The accounting contract: interval sums settle exactly against the
	// aggregate stall counters, per coarse cause.
	sums := rec.CoarseStallSums()
	for _, k := range []string{"input-starved", "output-blocked", "token-wait"} {
		if sums[k] != r.Stalls[k] {
			t.Errorf("profile %s intervals sum to %d, Result.Stalls reports %d", k, sums[k], r.Stalls[k])
		}
	}

	// Busy intervals on counter-driven unit tracks reproduce FiredTotal: one
	// firing per busy cycle. VMU/forwarder service and DRAM occupancy are
	// busy time but not firings.
	counterDriven := map[string]bool{"vcu": true, "req": true, "resp": true,
		"bounds": true, "cond": true, "ag": true}
	var busy int64
	for _, tr := range rec.Live() {
		if !counterDriven[tr.Kind] {
			continue
		}
		for _, iv := range tr.Intervals {
			if iv.Cause == profile.CauseBusy {
				busy += iv.End - iv.Start
			}
		}
	}
	if busy != r.FiredTotal {
		t.Errorf("busy cycles on counter-driven tracks = %d, FiredTotal = %d", busy, r.FiredTotal)
	}

	// Structural invariants every downstream analysis leans on.
	for _, tr := range rec.Live() {
		prevEnd := int64(0)
		for i, iv := range tr.Intervals {
			if iv.End <= iv.Start {
				t.Fatalf("track %s interval %d is empty or inverted: [%d,%d)", tr.Name, i, iv.Start, iv.End)
			}
			if iv.Start < prevEnd {
				t.Fatalf("track %s interval %d overlaps predecessor: start %d < prev end %d",
					tr.Name, i, iv.Start, prevEnd)
			}
			if iv.End > rec.Cycles {
				t.Fatalf("track %s interval %d ends at %d past run end %d", tr.Name, i, iv.End, rec.Cycles)
			}
			prevEnd = iv.End
		}
	}
	return rec
}

// assertSameRecording holds two engines' recordings of one design to each
// other interval by interval: every track must hold the same intervals,
// cause, start, end and peer alike.
func assertSameRecording(t *testing.T, evt, den *profile.Recording) {
	t.Helper()
	if evt == nil || den == nil {
		t.Fatal("an engine recorded nothing")
	}
	if len(evt.Tracks) != len(den.Tracks) || evt.Cycles != den.Cycles {
		t.Fatalf("event recorded %d tracks over %d cycles, dense %d over %d",
			len(evt.Tracks), evt.Cycles, len(den.Tracks), den.Cycles)
	}
	bad := 0
	for id, et := range evt.Tracks {
		dt := den.Tracks[id]
		if (et == nil) != (dt == nil) {
			t.Fatalf("track %d defined on one engine only", id)
		}
		if et == nil || slices.Equal(et.Intervals, dt.Intervals) {
			continue
		}
		if bad++; bad > 3 {
			continue
		}
		i := 0
		for i < len(et.Intervals) && i < len(dt.Intervals) && et.Intervals[i] == dt.Intervals[i] {
			i++
		}
		var ei, di any = "none", "none"
		if i < len(et.Intervals) {
			ei = et.Intervals[i]
		}
		if i < len(dt.Intervals) {
			di = dt.Intervals[i]
		}
		t.Errorf("track %s: %d intervals on event, %d on dense; interval %d: event %+v, dense %+v",
			et.Name, len(et.Intervals), len(dt.Intervals), i, ei, di)
	}
	if bad > 0 {
		t.Errorf("%d tracks differ between the engines", bad)
	}
}

// TestProfileStallExactness is the profiler's gate. Every registered
// workload drains through the profiler under both engines: per-cause stall
// intervals sum exactly to Result.Stalls, and the two engines record the
// same intervals on every track. The same must hold, placed, at p4/s64, on
// the benchmark's 16 kernels designs and on rf and ms at p8/s16, where a
// stall's cause once depended on when the event engine happened to look.
func TestProfileStallExactness(t *testing.T) {
	const maxCycles = 30_000_000
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			var evt, den *profile.Recording
			t.Run("event", func(t *testing.T) { evt = assertProfileExact(t, d, sim.EngineEvent, maxCycles) })
			t.Run("dense", func(t *testing.T) { den = assertProfileExact(t, d, sim.EngineDense, maxCycles) })
			t.Run("recording", func(t *testing.T) { assertSameRecording(t, evt, den) })
		})
	}
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
		ds = append(ds, design{name, 4, 64}, design{name, par, 8})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{name, 128, 8})
	}
	ds = append(ds, design{"rf", 8, 16}, design{"ms", 8, 16})
	for _, k := range ds {
		k := k
		t.Run("placed/"+k.name+"/p"+itoa(k.par)+"/s"+itoa(k.scale), func(t *testing.T) {
			d := compilePlaced(t, k.name, k.par, k.scale)
			_, evt, err := sim.CycleProfiled(d, maxCycles, sim.EngineEvent)
			if err != nil {
				t.Fatalf("event engine: %v", err)
			}
			_, den, err := sim.CycleProfiled(d, maxCycles, sim.EngineDense)
			if err != nil {
				t.Fatalf("dense engine: %v", err)
			}
			assertSameRecording(t, evt, den)
		})
	}
}

// TestParallelProfiled holds a profiled event run to an unprofiled one
// under GOMAXPROCS 1 and 2 (and NumCPU when larger): at every setting the
// profiled Result's cycles and firings must equal the event engine's, and
// the recording must settle against its Result. "Parallel" names the
// GOMAXPROCS settings only: the one engine runs on one goroutine, and what
// this checks is that nothing a profiled run reports depends on how many
// the scheduler may use.
func TestParallelProfiled(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			evt, err := sim.CycleEngine(d, 30_000_000, sim.EngineEvent)
			if err != nil {
				t.Fatalf("event engine: %v", err)
			}
			atGOMAXPROCS(t, func(t *testing.T) {
				r, _, err := sim.CycleProfiled(d, 30_000_000, sim.EngineEvent)
				if err != nil {
					t.Fatalf("CycleProfiled: %v", err)
				}
				if r.Cycles != evt.Cycles || r.FiredTotal != evt.FiredTotal {
					t.Fatalf("profiled run diverged from the unprofiled one: cycles %d/%d fired %d/%d",
						r.Cycles, evt.Cycles, r.FiredTotal, evt.FiredTotal)
				}
				assertProfileExact(t, d, sim.EngineEvent, 30_000_000)
			})
		})
	}
}

// atGOMAXPROCS reruns f under GOMAXPROCS 1, 2 and NumCPU (when larger),
// restoring the original setting afterwards.
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

// TestProfileChromeExport round-trips one real workload recording through the
// Chrome trace writer and its validator: schema, monotonic timestamps, and
// matched B/E pairs on machine-generated (not hand-crafted) data.
func TestProfileChromeExport(t *testing.T) {
	d := compileWorkload(t, pickWorkload(t, "mlp"))
	_, rec, err := sim.CycleProfiled(d, 30_000_000, sim.EngineAuto)
	if err != nil {
		t.Fatalf("CycleProfiled: %v", err)
	}
	var buf bytes.Buffer
	if err := profile.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := profile.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("exported trace invalid: %v", err)
	}
}

// TestProfileReportAnalysis sanity-checks the analysis layer on a real run:
// the critical path must span the run back to cycle 0, and per-unit
// utilization must stay in [0, 1].
func TestProfileReportAnalysis(t *testing.T) {
	d := compileWorkload(t, pickWorkload(t, "mlp"))
	r, rec, err := sim.CycleProfiled(d, 30_000_000, sim.EngineAuto)
	if err != nil {
		t.Fatalf("CycleProfiled: %v", err)
	}
	rep := profile.Analyze(rec)
	if rep.Cycles != r.Cycles {
		t.Errorf("report cycles %d, result cycles %d", rep.Cycles, r.Cycles)
	}
	if len(rep.Path) == 0 {
		t.Fatal("critical path is empty")
	}
	if rep.Path[0].Start != 0 {
		t.Errorf("critical path starts at %d, want 0", rep.Path[0].Start)
	}
	for i := 1; i < len(rep.Path); i++ {
		if rep.Path[i].Start != rep.Path[i-1].End {
			t.Fatalf("critical path segment %d starts at %d, predecessor ends at %d",
				i, rep.Path[i].Start, rep.Path[i-1].End)
		}
	}
	for _, u := range rep.Units {
		if u.Util < 0 || u.Util > 1 {
			t.Errorf("unit %s utilization %v out of range", u.Name, u.Util)
		}
	}
	if rep.Render() == "" {
		t.Error("rendered report is empty")
	}
	if j := rep.JSON(); j.Cycles != r.Cycles {
		t.Errorf("report JSON cycles %d, want %d", j.Cycles, r.Cycles)
	}
}

// TestProfileDeadlock asserts the profiled entry point surfaces simulation
// errors instead of returning a half-built recording.
func TestProfileDeadlock(t *testing.T) {
	r, rec, err := sim.CycleProfiled(deadlockDesign(), 1_000_000, sim.EngineEvent)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if r != nil || rec != nil {
		t.Errorf("deadlocked run returned non-nil result/recording")
	}
}

// TestTraceEngineGate: CycleWithTrace runs the dense engine and records a
// non-empty memory-port trace.
func TestTraceEngineGate(t *testing.T) {
	d := compileWorkload(t, pickWorkload(t, "mlp"))
	if _, tr, err := sim.CycleWithTrace(d, 30_000_000); err != nil || len(tr.Events) == 0 {
		t.Errorf("CycleWithTrace: err=%v events=%d, want dense trace", err, len(tr.Events))
	}
}

// pickWorkload fetches one registered workload by name.
func pickWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	for _, w := range workloads.All() {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %q not registered", name)
	return nil
}
