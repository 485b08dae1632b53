// Package dram models the off-chip memory system behind the RDA's DRAM
// interfaces (the role Ramulator plays in the paper's methodology, §IV-a).
//
// RDA memory interfaces serve requests in a streaming, in-order fashion per
// stream (paper §II-C), so the model is a set of independent channels, each a
// FIFO server with a fixed bandwidth (bytes per accelerator cycle), a fixed
// unloaded latency, and a burst granularity that penalizes small or unaligned
// requests. Aggregate behaviour reproduces what the evaluation depends on:
// a hard roofline at 1 TB/s (HBM2) or 49 GB/s (DDR3), per-channel queueing
// when demand concentrates, and latency that grows once a channel saturates.
//
// Channel time is kept in integer ticks. The per-channel bandwidth is exactly
// tpc/tpb bytes per cycle, with a cycle tpc ticks long and a byte tpb: HBM2's
// 62.5 B/cycle makes a cycle 125 ticks and a byte 2, DDR3's 12.25 makes them
// 49 and 4. A transfer's occupancy, a queue's backlog and a shift of a whole
// queue by some cycles are then exact integers at any magnitude, which is what
// lets the simulator's steady-state fast-forward capture a busy channel and
// jump it forward (internal/sim/fastforward.go).
package dram

import (
	"fmt"

	"sara/internal/arch"
)

// Model is an off-chip memory system instance. Queue positions and counters
// live in the per-channel structs; Stats sums the channels on demand.
type Model struct {
	Spec arch.DRAMSpec
	ch   []channel
	// tpc and tpb are the lengths of a cycle and of a byte's transfer in
	// ticks: the bandwidth is exactly tpc/tpb bytes per cycle.
	tpc, tpb int64
	// rrNext assigns streams to channels round-robin.
	rrNext int

	// OnService, when set, observes every channel service interval: the
	// channel was occupied by one request's transfer over [start, end)
	// accelerator cycles (unloaded latency excluded — it overlaps other
	// services and does not occupy the channel). The profiler uses it to
	// build per-channel occupancy timelines; per-channel intervals arrive
	// with non-decreasing start.
	OnService func(ch int, start, end int64)
}

type channel struct {
	// busyUntil is the tick the channel's queue drains at. It is finer than a
	// cycle: back-to-back streaming requests occupy the channel continuously
	// instead of rounding each to whole cycles.
	busyUntil int64
	bytes     int64
	// per-channel counters, summed by Stats
	reqs        int64
	stallCycles int64
}

// New returns a model for the given DRAM technology. It refuses a spec
// without channels or with a bandwidth ticks cannot hold
// (arch.DRAMSpec.CheckBandwidth).
func New(spec arch.DRAMSpec) (*Model, error) {
	if spec.Channels <= 0 || spec.Channels > arch.MaxDRAMChannels {
		return nil, fmt.Errorf("dram: %d channels invalid: must be in 1..%d", spec.Channels, arch.MaxDRAMChannels)
	}
	if err := spec.CheckBandwidth(); err != nil {
		return nil, fmt.Errorf("dram: %w", err)
	}
	// Double a byte's ticks until a cycle's, tpb times the bandwidth, is
	// whole; a multiple of 2^-10 gets there within ten doublings.
	m := &Model{Spec: spec, ch: make([]channel, spec.Channels), tpb: 1}
	bw := spec.BytesPerCyclePerChannel
	for bw != float64(int64(bw)) {
		bw *= 2
		m.tpb *= 2
	}
	m.tpc = int64(bw)
	return m, nil
}

// BindStream assigns a request stream to a channel (round-robin), returning
// the channel id the stream should use for all its requests.
func (m *Model) BindStream() int {
	c := m.rrNext % len(m.ch)
	m.rrNext++
	return c
}

// Request enqueues a transfer of the given size on a channel at cycle now and
// returns the cycle its data is available (reads) or acknowledged (writes).
// Requests on one channel are served in order; the channel occupancy is the
// transfer time at peak bandwidth, rounded up to burst granularity.
func (m *Model) Request(ch int, bytes int, now int64) int64 {
	return m.request(ch, bytes, now, false)
}

// RequestCoalesced is Request for sequential streams: consecutive elements
// share bursts, so no burst-granularity rounding applies.
func (m *Model) RequestCoalesced(ch int, bytes int, now int64) int64 {
	return m.request(ch, bytes, now, true)
}

func (m *Model) request(ch int, bytes int, now int64, coalesced bool) int64 {
	if ch < 0 || ch >= len(m.ch) {
		panic(fmt.Sprintf("dram: channel %d out of range", ch))
	}
	b := m.Charged(bytes, coalesced)
	c := &m.ch[ch]
	start := now * m.tpc
	if c.busyUntil > start {
		c.stallCycles += (c.busyUntil - start) / m.tpc
		start = c.busyUntil
	}
	c.busyUntil = start + b*m.tpb
	c.bytes += b
	c.reqs++
	end := m.ceilCycle(c.busyUntil)
	if m.OnService != nil {
		m.OnService(ch, start/m.tpc, end)
	}
	done := end + int64(m.Spec.LatencyCycles)
	if done <= now {
		done = now + 1
	}
	return done
}

// Charged returns the bytes a request of the given size occupies its channel
// for: at least one, and rounded up to burst granularity unless coalesced —
// a 4-byte random access still moves a burst, while sequential streams
// share bursts and pay only their own bytes.
func (m *Model) Charged(bytes int, coalesced bool) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	if !coalesced {
		bytes = ((bytes + m.Spec.BurstBytes - 1) / m.Spec.BurstBytes) * m.Spec.BurstBytes
	}
	return int64(bytes)
}

// TransferCycles returns the cycles one channel needs to move the given
// bytes at its peak bandwidth, rounded up: no queue of requests totalling
// that many charged bytes drains sooner.
func (m *Model) TransferCycles(bytes int64) int64 {
	return m.ceilCycle(bytes * m.tpb)
}

// ceilCycle returns the first cycle boundary at or after tick t ≥ 0.
func (m *Model) ceilCycle(t int64) int64 {
	return (t + m.tpc - 1) / m.tpc
}

// StreamRate returns the sustainable elements-per-cycle rate for a stream of
// the given element size sharing a channel with nSharers streams (including
// itself). The simulator uses it for steady-state throughput bounds.
func (m *Model) StreamRate(elemBytes, nSharers int) float64 {
	if nSharers < 1 {
		nSharers = 1
	}
	return m.Spec.BytesPerCyclePerChannel / float64(elemBytes) / float64(nSharers)
}

// Channels returns the channel count.
func (m *Model) Channels() int { return len(m.ch) }

// NextReady returns the first cycle at which the channel can begin serving a
// new request without queueing. Event-driven callers use it to know when the
// channel's state next changes; deadlock diagnostics use it to distinguish a
// stuck unit from one merely waiting out a DRAM queue.
func (m *Model) NextReady(ch int) int64 {
	if ch < 0 || ch >= len(m.ch) {
		panic(fmt.Sprintf("dram: channel %d out of range", ch))
	}
	return m.ceilCycle(m.ch[ch].busyUntil)
}

// Backlog returns the ticks of transfer the channel still has queued past the
// start of cycle at, 0 when a request issued then starts at once. Every
// request issued at cycle at or later answers as a function of it, so the
// simulator's fast-forward puts it in its signature.
func (m *Model) Backlog(ch int, at int64) int64 {
	return max(m.ch[ch].busyUntil-at*m.tpc, 0)
}

// Shift moves the channel's queue the given number of cycles later: after
// it, a request issued that many cycles later answers as one issued now
// would have. The fast-forward uses it to jump whole periods.
func (m *Model) Shift(ch int, cycles int64) {
	m.ch[ch].busyUntil += cycles * m.tpc
}

// Counters returns one channel's running totals: bytes moved, requests
// served and cycles requests spent queued.
func (m *Model) Counters(ch int) (bytes, reqs, stallCycles int64) {
	c := &m.ch[ch]
	return c.bytes, c.reqs, c.stallCycles
}

// SetCounters overwrites one channel's running totals. The simulator's
// steady-state fast-forward uses it to add whole periods of traffic at once.
func (m *Model) SetCounters(ch int, bytes, reqs, stallCycles int64) {
	c := &m.ch[ch]
	c.bytes, c.reqs, c.stallCycles = bytes, reqs, stallCycles
}

// Stats reports aggregate counters.
type Stats struct {
	TotalBytes  int64
	TotalReqs   int64
	StallCycles int64
	// PeakBytesPerCycle is the model's roofline.
	PeakBytesPerCycle float64
}

// Stats returns aggregate counters, summed over the channels.
func (m *Model) Stats() Stats {
	s := Stats{PeakBytesPerCycle: m.Spec.TotalBytesPerCycle()}
	for i := range m.ch {
		s.TotalBytes += m.ch[i].bytes
		s.TotalReqs += m.ch[i].reqs
		s.StallCycles += m.ch[i].stallCycles
	}
	return s
}

// Reset clears channel state and counters.
func (m *Model) Reset() {
	for i := range m.ch {
		m.ch[i] = channel{}
	}
	m.rrNext = 0
}
