package profile

import (
	"strings"
	"testing"
)

// sampleRecording builds a small three-track timeline by hand: a compute
// unit that fires, starves on the memory unit, and fires again; the memory
// unit it waits on; and one DRAM channel.
func sampleRecording() *Recording {
	rec := NewRecording(4) // slot 3 stays undefined, like a removed VU
	rec.Define(0, "a[0]", "vcu")
	rec.Define(1, "m", "vmu")
	rec.Define(2, "dram[0]", "dram")
	rec.Record(0, CauseBusy, 0, 4, NoPeer)
	rec.Record(0, CauseUpstream, 4, 3, 1)
	rec.Record(0, CauseBusy, 7, 1, NoPeer)
	rec.Record(1, CauseBusy, 2, 5, NoPeer)
	rec.Record(2, CauseBusy, 3, 6, NoPeer)
	rec.Finish(10)
	return rec
}

func TestCauseTaxonomy(t *testing.T) {
	for _, c := range StallCauses() {
		if c.Coarse() == "" {
			t.Errorf("stall cause %s has no coarse mapping", c)
		}
		if strings.Contains(c.String(), "cause(") {
			t.Errorf("stall cause %d has no name", c)
		}
	}
	for _, c := range []Cause{CauseBusy, CauseIdle} {
		if c.Coarse() != "" {
			t.Errorf("%s should not map to a stall bucket, got %q", c, c.Coarse())
		}
	}
	want := map[string]bool{"input-starved": true, "output-blocked": true, "token-wait": true}
	for _, c := range StallCauses() {
		if !want[c.Coarse()] {
			t.Errorf("%s maps to unknown coarse key %q", c, c.Coarse())
		}
	}
}

// TestRecordMerging asserts cycle-by-cycle calls (the dense engine's shape)
// collapse into the same intervals an interval-at-a-time caller (the event
// engine) records.
func TestRecordMerging(t *testing.T) {
	perCycle := NewRecording(1)
	perCycle.Define(0, "u", "vcu")
	for c := int64(0); c < 5; c++ {
		perCycle.Record(0, CauseToken, c, 1, 7)
	}
	perCycle.Record(0, CauseBusy, 5, 1, NoPeer)
	perCycle.Record(0, CauseBusy, 5, 1, NoPeer) // overlapping re-record (VMU dual-port shape)
	perCycle.Record(0, CauseToken, 6, 1, 7)
	perCycle.Record(0, CauseToken, 7, 1, 8) // same cause, different peer: new interval

	wholesale := NewRecording(1)
	wholesale.Define(0, "u", "vcu")
	wholesale.Record(0, CauseToken, 0, 5, 7)
	wholesale.Record(0, CauseBusy, 5, 1, NoPeer)
	wholesale.Record(0, CauseToken, 6, 1, 7)
	wholesale.Record(0, CauseToken, 7, 1, 8)

	a, b := perCycle.Tracks[0].Intervals, wholesale.Tracks[0].Intervals
	if len(a) != len(b) {
		t.Fatalf("interval counts differ: per-cycle %d, wholesale %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("interval %d: per-cycle %+v, wholesale %+v", i, a[i], b[i])
		}
	}
	if len(a) != 4 {
		t.Errorf("want 4 merged intervals, got %d: %v", len(a), a)
	}
	if perCycle.Record(0, CauseBusy, 100, 0, NoPeer); len(perCycle.Tracks[0].Intervals) != 4 {
		t.Error("zero-length record must be dropped")
	}
}

func TestCoarseStallSums(t *testing.T) {
	rec := sampleRecording()
	sums := rec.CoarseStallSums()
	if sums["input-starved"] != 3 {
		t.Errorf("input-starved = %d, want 3", sums["input-starved"])
	}
	if len(sums) != 1 {
		t.Errorf("unexpected extra coarse buckets: %v", sums)
	}
}

func TestAnalyze(t *testing.T) {
	rep := Analyze(sampleRecording())
	if rep.Cycles != 10 {
		t.Fatalf("Cycles = %d, want 10", rep.Cycles)
	}
	if len(rep.Units) != 3 {
		t.Fatalf("Units = %d, want 3 (undefined slot must be skipped)", len(rep.Units))
	}
	a := rep.Units[0]
	if a.Busy != 5 || a.Stalls[CauseUpstream] != 3 || a.Idle != 2 {
		t.Errorf("unit a: busy %d stalls %d idle %d, want 5/3/2", a.Busy, a.Stalls[CauseUpstream], a.Idle)
	}
	if a.Util != 0.5 {
		t.Errorf("unit a util = %v, want 0.5", a.Util)
	}
	if cause, n := a.DominantStall(); cause != CauseUpstream || n != 3 {
		t.Errorf("dominant stall = %s/%d, want upstream-wait/3", cause, n)
	}
	if rep.StallsByCause[CauseUpstream.String()] != 3 {
		t.Errorf("StallsByCause = %v", rep.StallsByCause)
	}
	top := rep.TopStalled(5)
	if len(top) != 1 || top[0].Name != "a[0]" {
		t.Errorf("TopStalled = %+v, want just a[0]", top)
	}
	txt := rep.Render()
	for _, want := range []string{"a[0]", "upstream-wait", "critical path"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Render missing %q:\n%s", want, txt)
		}
	}
}

// TestCriticalPath walks the sample: a's last firing ends the run; before it
// a starved on m; before that both were busy. The path must be contiguous
// backward in time and hop to the blamed peer at the stall.
func TestCriticalPath(t *testing.T) {
	rec := sampleRecording()
	path := CriticalPath(rec)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	last := path[len(path)-1]
	if last.Track != 0 || last.Cause != CauseBusy || last.End != 8 {
		t.Errorf("path must end at a[0]'s final firing, got %+v", last)
	}
	// Contiguous backward: each segment starts where the previous ends.
	for i := 1; i < len(path); i++ {
		if path[i].Start != path[i-1].End {
			t.Errorf("path gap between %+v and %+v", path[i-1], path[i])
		}
	}
	if path[0].Start != 0 {
		t.Errorf("path must reach cycle 0, starts at %d", path[0].Start)
	}
	// The upstream stall must hand the walk to track 1 (m).
	sawHop := false
	for _, s := range path {
		if s.Track == 1 {
			sawHop = true
		}
	}
	if !sawHop {
		t.Errorf("path never visited the blamed peer: %+v", path)
	}
	agg := Analyze(rec).AggregatePath()
	var total int64
	for _, pc := range agg {
		total += pc.Cycles
	}
	if total != 8 {
		t.Errorf("aggregated path covers %d cycles, want 8 (endpoint of last firing)", total)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	rec := NewRecording(1)
	rec.Define(0, "u", "vcu")
	rec.Finish(0)
	if p := CriticalPath(rec); p != nil {
		t.Errorf("want nil path for empty recording, got %+v", p)
	}
}
