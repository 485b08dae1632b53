// Package sim executes a compiled SARA design and reports its runtime in
// accelerator cycles, standing in for the paper's cycle-accurate
// Plasticine + Ramulator simulator (paper §IV-a).
//
// Three engines share one input. Two are cycle-level and execute the same
// semantics of the placed VUDFG — chained counters, stream buffers with
// finite depth and network fill latency, CMMC tokens and credits with
// push/pop at counter wraps, per-port VMU service with single-read-stream
// arbitration, DRAM channel queueing — with bit-identical Results and
// deadlock reports; they differ only in what a run costs on the host:
//
//   - Event (EngineEvent, event.go): a calendar queue of arrivals and timers,
//     wake lists, parking and batch firing make cost proportional to
//     activity, and a steady state that recurs exactly is advanced whole
//     periods at a time (fastforward.go). The one engine every served, CLI
//     and API path runs; EngineAuto and the wire names auto, cycle and event
//     all name it.
//   - Dense (EngineDense, cycle.go): scans every edge and steps every unit
//     each cycle. Linear in cycles x graph size; the reference oracle the
//     event engine is tested and timed against, and the only engine that
//     records port traces (CycleWithTrace).
//   - Analytic (analytic.go): a steady-state bottleneck model — per-unit
//     initiation intervals from DRAM bandwidth shares, VMU read
//     serialization, credit round trips, unretimed slack, and do-while
//     serialization — plus pipeline fill. Microseconds per design; held to
//     the cycle engines in the test suite and used for the paper-scale sweeps
//     and the tuner's pruning, where cycle simulation would be too slow.
//
// All three report the same Result shape so the evaluation harness can swap
// them.
package sim

import (
	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/dram"
	"sara/internal/merge"
	"sara/internal/place"
)

// Version identifies the cycle-level engines' semantics. A Result is a pure
// function of (Design, cycle cap, Version) — both engines agree on every field
// but Engine — and sarad memoises Results under it — bump it whenever any design's Result can change (a semantics
// fix, a new or renamed Result field, a changed stall attribution), or stale
// records keep being served. testdata/result_digests.json pins the twelve
// workloads' Results to the version and fails the suite when they move alone.
const Version = 3

// Design bundles everything needed to execute a compiled program.
type Design struct {
	G    *dfg.Graph
	Spec *arch.Spec
	// Merge and Placement are optional; when nil, every unit is its own PU
	// and streams are charged a fixed default hop distance.
	Merge     *merge.Result
	Placement *place.Placement
}

// fallbackHops is the stream distance assumed when a design has no placement
// and its Spec does not set DefaultStreamHops (e.g. hand-built Specs in
// tests). The arch presets configure the distance explicitly.
const fallbackHops = 4

// hops returns the network distance of an edge in switch hops. The fallback
// applies only when the design carries no placement — compilation ran with
// SkipPlace, or the Design was assembled without merge/placement results —
// in which case every stream is charged the flat Spec.DefaultStreamHops
// distance instead of a routed one.
func (d *Design) hops(e *dfg.Edge) int {
	if d.Placement != nil && d.Merge != nil {
		return d.Placement.EdgeHops(d.Merge, e.Src, e.Dst)
	}
	if d.Spec != nil && d.Spec.DefaultStreamHops > 0 {
		return d.Spec.DefaultStreamHops
	}
	return fallbackHops
}

// edgeLatency returns the cycle latency a stream element spends in flight.
func (d *Design) edgeLatency(e *dfg.Edge) int {
	h := d.hops(e)
	if h == 0 {
		return 1
	}
	return (h + 1) * d.Spec.NetHopLatencyCycles
}

// Result is an execution report.
type Result struct {
	// Cycles is the end-to-end runtime in accelerator cycles.
	Cycles int64
	// Engine names the engine that produced the result. It is not part of
	// the JSON encoding, which is sarad's result-memo record: the record is
	// one per design, and the served response names the event engine.
	Engine string `json:"-"`
	// BottleneckVU names the unit that bounds steady-state throughput.
	BottleneckVU string
	// BottleneckII is that unit's effective initiation interval.
	BottleneckII float64
	// ComputeBusy is the aggregate busy fraction over compute-class units.
	ComputeBusy float64
	// DRAM reports memory-system counters (cycle engine only).
	DRAM dram.Stats
	// FiredTotal is the total firings executed (cycle engine only).
	FiredTotal int64
	// Stalls breaks blocked unit-cycles down by cause (cycle engine only):
	// "input-starved", "output-blocked", "token-wait".
	Stalls map[string]int64
	// TopUnits lists the busiest units (cycle engine only), most active
	// first — where the machine's time actually went.
	TopUnits []UnitStat
}

// UnitStat is one unit's activity summary from a cycle-level run.
type UnitStat struct {
	Name   string
	Fired  int64
	Busy   float64 // fired / total cycles — the unit's utilization
	Stalls int64   // blocked unit-cycles, all causes
	// Per-cause breakdown of Stalls, keyed like Result.Stalls:
	StallIn    int64 // input-starved
	StallOut   int64 // output-blocked
	StallToken int64 // token-wait
}

// Seconds converts cycles to seconds at the design's clock.
func (r *Result) Seconds(spec *arch.Spec) float64 {
	return float64(r.Cycles) / (spec.ClockGHz * 1e9)
}

// elemBytes returns the datapath element size in bytes.
func elemBytes(d *Design) int {
	b := d.G.Prog.TypeBits / 8
	if b <= 0 {
		b = 4
	}
	return b
}
