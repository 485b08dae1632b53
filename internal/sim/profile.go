package sim

import (
	"fmt"

	"sara/internal/profile"
)

// CycleProfiled runs the cycle-level simulation with the timeline profiler
// attached, returning the result alongside the finished recording. The
// profiled run is bit-identical to an unprofiled one — recording hooks only
// observe state transitions, never alter them — so Result fields match
// CycleEngine exactly, and the recording's coarse stall sums reproduce
// Result.Stalls cycle-for-cycle (see the profile package's accounting
// contract).
//
// Track IDs 0..len(VUs)-1 are the design's virtual units (holes where VUs
// were removed); DRAM channel tracks follow at len(VUs)+ch.
func CycleProfiled(d *Design, maxCycles int64, kind EngineKind) (*Result, *profile.Recording, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, nil, err
	}
	maxCycles = cycleCap(maxCycles)

	nVU := len(cs.vus)
	rec := profile.NewRecording(nVU + cs.dram.Channels())
	for _, u := range d.G.LiveVUs() {
		rec.Define(int(u.ID), u.Name+u.Instance, u.Kind.String())
	}
	for c := 0; c < cs.dram.Channels(); c++ {
		rec.Define(nVU+c, fmt.Sprintf("dram[%d]", c), "dram")
	}
	cs.rec = rec
	// DRAM channel occupancy arrives from the memory model, not the unit
	// steppers: each service interval lands on the channel's own track.
	cs.dram.OnService = func(ch int, start, end int64) {
		rec.Record(nVU+ch, profile.CauseBusy, start, end-start, profile.NoPeer)
	}

	var r *Result
	if kind == EngineDense {
		r, err = cs.runDense(maxCycles)
	} else {
		r, err = cs.runEvent(maxCycles)
	}
	if err != nil {
		return nil, nil, err
	}
	rec.Finish(r.Cycles)
	return r, rec, nil
}
