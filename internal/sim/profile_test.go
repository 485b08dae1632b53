package sim_test

import (
	"bytes"
	"errors"
	"runtime"
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
// sorted, disjoint timeline inside [0, Cycles].
func assertProfileExact(t *testing.T, d *sim.Design, kind sim.EngineKind, maxCycles int64) {
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
}

// TestProfileStallExactness drains every registered workload through the
// profiler under both engines — the ISSUE's acceptance gate: per-cause
// profiled stall intervals sum exactly to Result.Stalls.
func TestProfileStallExactness(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			d := compileWorkload(t, w)
			t.Run("event", func(t *testing.T) { assertProfileExact(t, d, sim.EngineEvent, 30_000_000) })
			t.Run("dense", func(t *testing.T) { assertProfileExact(t, d, sim.EngineDense, 30_000_000) })
		})
	}
}

// TestParallelProfiled runs the profiler's accounting gate on the
// auto-selected engine under GOMAXPROCS 1, 2 and NumCPU. Engine choice is a
// function of the design alone, so the profiled Result must match the event
// engine and the recording must settle against it at every setting.
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
				r, _, err := sim.CycleProfiled(d, 30_000_000, sim.EngineAuto)
				if err != nil {
					t.Fatalf("CycleProfiled(auto): %v", err)
				}
				if r.Cycles != evt.Cycles || r.FiredTotal != evt.FiredTotal {
					t.Fatalf("profiled auto diverged from event: cycles %d/%d fired %d/%d",
						r.Cycles, evt.Cycles, r.FiredTotal, evt.FiredTotal)
				}
				assertProfileExact(t, d, sim.EngineAuto, 30_000_000)
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

// TestTraceEngineGate: requesting a memory-port trace from the event engine
// (EngineAuto names it) fails with the documented sentinel instead of
// silently tracing on dense (or silently truncating), and CycleWithTrace
// names the dense engine itself.
func TestTraceEngineGate(t *testing.T) {
	d := compileWorkload(t, pickWorkload(t, "mlp"))
	if _, _, err := sim.CycleWithTraceEngine(d, 30_000_000, sim.EngineAuto); !errors.Is(err, sim.ErrTraceNeedsDense) {
		t.Errorf("event-engine trace request: got %v, want ErrTraceNeedsDense", err)
	}
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
