// Package profile is the cycle simulator's observability layer: an opt-in,
// low-overhead timeline recorder plus the analyses that turn raw per-unit
// firing/stall intervals into answers — where did the cycles go, which unit
// chain bounds the runtime, and what does the machine's schedule look like
// when loaded into a trace viewer (paper §VII debugs its evaluation the same
// way: token/credit back-pressure, DRAM channel contention, and network hops
// have to be attributed before they can be optimized).
//
// The simulator records intervals; this package owns their taxonomy
// (Cause), storage (Recording), and the analyses on top: per-unit
// utilization and stall breakdowns (report.go), critical-path extraction
// (critpath.go), and Chrome trace-event export (chrome.go).
//
// The accounting contract: every stall interval settles against exactly one
// refined Cause, and grouping refined causes by Cause.Coarse reproduces the
// simulator's aggregate Result.Stalls counters cycle-for-cycle, under both
// engines. The refined split inside "input-starved" (upstream vs network vs
// DRAM) is attributed when the stall begins; the dense engine re-evaluates it
// every cycle while the event engine keeps the park-time cause for the whole
// parked interval, so those sub-causes may differ between engines even though
// the coarse sums are bit-identical.
package profile

import "fmt"

// Cause classifies what a unit was doing (or waiting on) during an interval.
type Cause uint8

const (
	// CauseBusy marks cycles the unit spent firing or serving.
	CauseBusy Cause = iota
	// CauseUpstream is an input stall with nothing in flight: the producer
	// has not produced yet.
	CauseUpstream
	// CauseNetwork is an input stall with elements in flight on the
	// interconnect — the data exists but has not crossed the network.
	CauseNetwork
	// CauseDRAM is an input stall on a stream sourced by a DRAM address
	// generator: the unit is waiting on the memory system.
	CauseDRAM
	// CauseOutput is downstream back-pressure: a full output buffer.
	CauseOutput
	// CauseToken is a wait on a forward CMMC token.
	CauseToken
	// CauseCredit is a wait on a CMMC credit (a backward token edge with
	// initial occupancy) — the consistency window is exhausted.
	CauseCredit
	// CauseIdle marks cycles with no recorded activity: pipeline fill before
	// a unit's first firing, or the drained tail after its last. Never
	// recorded by the simulator; synthesized by the analyses for gaps.
	CauseIdle
	// NumCauses bounds per-cause arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	"busy", "upstream-wait", "network-wait", "dram-wait",
	"output-blocked", "token-wait", "credit-wait", "idle",
}

// String returns the cause's report/trace label.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Coarse maps a refined cause onto the simulator's aggregate Result.Stalls
// key it settles against, or "" for non-stall causes (busy, idle).
func (c Cause) Coarse() string {
	switch c {
	case CauseUpstream, CauseNetwork, CauseDRAM:
		return "input-starved"
	case CauseOutput:
		return "output-blocked"
	case CauseToken, CauseCredit:
		return "token-wait"
	}
	return ""
}

// StallCauses lists the refined causes that settle against Result.Stalls.
func StallCauses() []Cause {
	return []Cause{CauseUpstream, CauseNetwork, CauseDRAM, CauseOutput, CauseToken, CauseCredit}
}

// Interval is one contiguous run of same-cause cycles on a track:
// [Start, End) in accelerator cycles.
type Interval struct {
	Start, End int64
	Cause      Cause
	// Peer is the track blamed for a stall — the source unit of the blocking
	// input/token edge, the destination of the full output edge — or -1.
	Peer int32
}

// Track is one timeline: a virtual unit or a DRAM channel.
type Track struct {
	ID   int
	Name string
	// Kind is the unit kind mnemonic (vcu, vmu, ag, merge, ...) or "dram"
	// for channel tracks.
	Kind      string
	Intervals []Interval
}

// NoPeer is the Interval.Peer value for intervals blaming no other track.
const NoPeer int32 = -1

// Recording is the raw timeline capture of one cycle-level run.
type Recording struct {
	// Tracks is indexed by track ID; entries never Defined stay nil
	// (removed VUs leave holes, mirroring the simulator's unit table).
	Tracks []*Track
	// Cycles is the run length, set by Finish.
	Cycles int64
}

// NewRecording returns an empty recording with n track slots.
func NewRecording(n int) *Recording {
	return &Recording{Tracks: make([]*Track, n)}
}

// Define registers track id with its display name and kind.
func (r *Recording) Define(id int, name, kind string) {
	r.Tracks[id] = &Track{ID: id, Name: name, Kind: kind}
}

// Record appends n cycles of cause c starting at start on track id. Calls on
// one track arrive with non-decreasing start (the simulators advance time
// monotonically), so an interval abutting or overlapping the previous one
// with the same cause and peer extends it in place — the dense engine's
// cycle-by-cycle calls collapse into the same intervals the event engine
// records wholesale.
func (r *Recording) Record(id int, c Cause, start, n int64, peer int32) {
	if n <= 0 {
		return
	}
	t := r.Tracks[id]
	if t == nil {
		return
	}
	end := start + n
	if k := len(t.Intervals); k > 0 {
		last := &t.Intervals[k-1]
		if last.Cause == c && last.Peer == peer && start <= last.End {
			if end > last.End {
				last.End = end
			}
			return
		}
	}
	t.Intervals = append(t.Intervals, Interval{Start: start, End: end, Cause: c, Peer: peer})
}

// Finish seals the recording with the run's cycle count.
func (r *Recording) Finish(cycles int64) { r.Cycles = cycles }

// Live returns the defined tracks in ID order.
func (r *Recording) Live() []*Track {
	out := make([]*Track, 0, len(r.Tracks))
	for _, t := range r.Tracks {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// PeerName resolves an Interval.Peer to its track name, or "".
func (r *Recording) PeerName(peer int32) string {
	if peer < 0 || int(peer) >= len(r.Tracks) || r.Tracks[peer] == nil {
		return ""
	}
	return r.Tracks[peer].Name
}

// CoarseStallSums sums stall interval lengths per aggregate cause key across
// all tracks — exactly the quantity the simulator's Result.Stalls counts, and
// what the equivalence tests compare it against.
func (r *Recording) CoarseStallSums() map[string]int64 {
	sums := map[string]int64{}
	for _, t := range r.Tracks {
		if t == nil {
			continue
		}
		for _, iv := range t.Intervals {
			if key := iv.Cause.Coarse(); key != "" {
				sums[key] += iv.End - iv.Start
			}
		}
	}
	return sums
}
