package dram

import (
	"math"
	"testing"

	"sara/internal/arch"
)

func TestRequestLatencyUnloaded(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	done := m.Request(0, 64, 0)
	// 64B at 62.5 B/cycle ~ 2 cycles service + 120 latency.
	if done < 120 || done > 125 {
		t.Errorf("unloaded completion = %d, want ~122", done)
	}
}

func TestChannelSerializes(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	d1 := m.Request(0, 6400, 0) // ~103 cycles service
	d2 := m.Request(0, 6400, 0)
	if d2 <= d1 {
		t.Errorf("second request (%d) must finish after first (%d)", d2, d1)
	}
	if m.Stats().StallCycles == 0 {
		t.Error("expected queueing stalls on a busy channel")
	}
}

func TestChannelsIndependent(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	d1 := m.Request(0, 6400, 0)
	d2 := m.Request(1, 6400, 0)
	if d1 != d2 {
		t.Errorf("independent channels should complete together: %d vs %d", d1, d2)
	}
}

func TestBurstRounding(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	m.Request(0, 4, 0) // one 4-byte element still moves a 64B burst
	if got := m.Stats().TotalBytes; got != 64 {
		t.Errorf("bytes moved = %d, want 64 (burst granularity)", got)
	}
}

func TestRooflineMatchesSpec(t *testing.T) {
	spec := arch.SARA20x20()
	m := mustNew(t, spec.DRAM)
	if got := m.Stats().PeakBytesPerCycle; got != 1000 {
		t.Errorf("HBM2 peak = %v B/cycle, want 1000 (1 TB/s at 1 GHz)", got)
	}
	if got := arch.PlasticineV1().DRAM.TotalBytesPerCycle(); got != 49 {
		t.Errorf("DDR3 peak = %v B/cycle, want 49", got)
	}
}

func TestBindStreamRoundRobin(t *testing.T) {
	m := mustNew(t, arch.PlasticineV1().DRAM) // 4 channels
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[m.BindStream()] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin should cover all 4 channels, got %v", seen)
	}
	if m.BindStream() != 0 {
		t.Error("round-robin should wrap")
	}
}

func TestStreamRate(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	// 62.5 B/cycle per channel over 4-byte elements, 2 sharers.
	if got := m.StreamRate(4, 2); got != 62.5/4/2 {
		t.Errorf("StreamRate = %v, want %v", got, 62.5/4/2)
	}
}

// TestOnServiceObservesOccupancy checks the profiler hook: every request
// produces one service interval on its channel, intervals on one channel
// arrive with non-decreasing start, back-to-back requests queue (the second
// interval starts where the first left off), and the hook excludes the
// unloaded latency (the interval ends at most a rounding cycle past the
// occupancy window, well before the request's completion cycle).
func TestOnServiceObservesOccupancy(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	type iv struct {
		ch         int
		start, end int64
	}
	var got []iv
	m.OnService = func(ch int, start, end int64) {
		got = append(got, iv{ch, start, end})
	}
	d1 := m.Request(0, 6400, 0) // ~103 cycles of channel occupancy
	m.Request(0, 6400, 0)       // queues behind the first
	m.Request(1, 64, 0)         // independent channel
	if len(got) != 3 {
		t.Fatalf("observed %d service intervals, want 3", len(got))
	}
	if got[0].ch != 0 || got[1].ch != 0 || got[2].ch != 1 {
		t.Fatalf("channel attribution wrong: %+v", got)
	}
	for i, v := range got {
		if v.end <= v.start {
			t.Errorf("interval %d empty or inverted: [%d,%d)", i, v.start, v.end)
		}
	}
	if got[1].start < got[0].end-1 {
		t.Errorf("queued request starts at %d, before predecessor's occupancy ends at %d",
			got[1].start, got[0].end)
	}
	lat := int64(m.Spec.LatencyCycles)
	if got[0].end > d1-lat+1 {
		t.Errorf("service interval ends at %d; must exclude the %d-cycle unloaded latency (done=%d)",
			got[0].end, lat, d1)
	}
}

func mustNew(t testing.TB, spec arch.DRAMSpec) *Model {
	t.Helper()
	m, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTicksOfPresets: a cycle is tpc ticks and a byte tpb, with the bandwidth
// exactly tpc/tpb bytes per cycle.
func TestTicksOfPresets(t *testing.T) {
	for _, tc := range []struct {
		spec     arch.DRAMSpec
		tpc, tpb int64
	}{
		{arch.SARA20x20().DRAM, 125, 2},
		{arch.PlasticineV1().DRAM, 49, 4},
	} {
		m := mustNew(t, tc.spec)
		if m.tpc != tc.tpc || m.tpb != tc.tpb {
			t.Errorf("%s: %d ticks per cycle and %d per byte, want %d and %d", tc.spec.Kind, m.tpc, m.tpb, tc.tpc, tc.tpb)
		}
	}
}

// TestCoalescedBurstIsExact: 125 coalesced 64-B requests at 62.5 B/cycle
// move 8000 B, exactly 128 cycles of channel time, however the 1.024-cycle
// transfers add up.
func TestCoalescedBurstIsExact(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	var done int64
	for i := 0; i < 125; i++ {
		done = m.RequestCoalesced(0, 64, 0)
	}
	if got := m.NextReady(0); got != 128 {
		t.Errorf("NextReady = %d, want 128", got)
	}
	if want := int64(128 + m.Spec.LatencyCycles); done != want {
		t.Errorf("last request done at %d, want %d", done, want)
	}
	if got := m.Backlog(0, 127); got != 125 {
		t.Errorf("Backlog at cycle 127 = %d ticks, want one cycle's 125", got)
	}
	if got := m.Backlog(0, 128); got != 0 {
		t.Errorf("Backlog at cycle 128 = %d ticks, want 0", got)
	}
}

// TestStallCyclesExact: 376 coalesced 192-B requests, one every third cycle,
// on one HBM2 channel. Each waits ⌊(busyUntil − now)/1 cycle⌋ whole cycles;
// summed exactly that is 4 890. The float model summed 4 889: one wait of
// exactly n cycles came out as n − ε and truncated to n − 1.
func TestStallCyclesExact(t *testing.T) {
	m := mustNew(t, arch.SARA20x20().DRAM)
	for i := int64(0); i < 376; i++ {
		m.RequestCoalesced(0, 192, 3*i)
	}
	if got := m.Stats().StallCycles; got != 4890 {
		t.Errorf("StallCycles = %d, want 4890", got)
	}
}

// TestDDR3Ticks: DDR3's 12.25 B/cycle is 49 ticks a cycle and 4 a byte, so
// a 64-B burst takes 256/49 cycles and 49 of them exactly 256 cycles.
func TestDDR3Ticks(t *testing.T) {
	m := mustNew(t, arch.PlasticineV1().DRAM)
	d1 := m.Request(2, 4, 10) // one burst: 256 ticks from cycle 10
	if want := int64(10 + 6 + m.Spec.LatencyCycles); d1 != want {
		t.Errorf("first burst done at %d, want %d (⌈10+256/49⌉ + latency)", d1, want)
	}
	m.Reset()
	for i := 0; i < 49; i++ {
		m.Request(2, 64, 0)
	}
	if got := m.NextReady(2); got != 256 {
		t.Errorf("NextReady after 49 bursts = %d, want 256", got)
	}
	// Request i waits ⌊256·i/49⌋ cycles.
	var want int64
	for i := int64(0); i < 49; i++ {
		want += 256 * i / 49
	}
	if got := m.Stats().StallCycles; got != want {
		t.Errorf("StallCycles = %d, want %d", got, want)
	}
}

// TestShiftTranslates: a channel shifted by s cycles answers every later
// request exactly as the unshifted channel answers the same request s
// cycles earlier.
func TestShiftTranslates(t *testing.T) {
	for _, spec := range []arch.DRAMSpec{arch.SARA20x20().DRAM, arch.PlasticineV1().DRAM} {
		a, b := mustNew(t, spec), mustNew(t, spec)
		for _, m := range []*Model{a, b} {
			for i := int64(0); i < 40; i++ {
				m.RequestCoalesced(1, 4*int(i%7+1), i/3)
			}
		}
		const s = 1 << 40 // far past any float binade the request times sit in
		b.Shift(1, s)
		if a.Backlog(1, 5) != b.Backlog(1, 5+s) || a.NextReady(1)+s != b.NextReady(1) {
			t.Fatalf("%s: shifted backlog or NextReady differs", spec.Kind)
		}
		for i := int64(0); i < 40; i++ {
			now := 13 + i/2
			da := a.Request(1, 4*int(i%5+1), now)
			db := b.Request(1, 4*int(i%5+1), now+s)
			if db != da+s {
				t.Fatalf("%s: request %d done at %d shifted, want %d", spec.Kind, i, db, da+s)
			}
		}
		if a.Stats() != b.Stats() {
			t.Errorf("%s: counters differ: %+v vs %+v", spec.Kind, a.Stats(), b.Stats())
		}
	}
}

// TestNewRefusesUntickableSpecs: New refuses a spec it cannot keep in ticks
// or that has no channels.
func TestNewRefusesUntickableSpecs(t *testing.T) {
	for _, mut := range []func(*arch.DRAMSpec){
		func(d *arch.DRAMSpec) { d.BytesPerCyclePerChannel = 62.3 },
		func(d *arch.DRAMSpec) { d.BytesPerCyclePerChannel = math.NaN() },
		func(d *arch.DRAMSpec) { d.BytesPerCyclePerChannel = math.Inf(1) },
		func(d *arch.DRAMSpec) { d.BytesPerCyclePerChannel = 0 },
		func(d *arch.DRAMSpec) { d.Channels = 0 },
	} {
		spec := arch.SARA20x20().DRAM
		mut(&spec)
		if _, err := New(spec); err == nil {
			t.Errorf("New(%+v) accepted", spec)
		}
	}
}
