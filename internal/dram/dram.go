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
	// busyUntil is fractional: back-to-back streaming requests occupy the
	// channel continuously instead of rounding each to whole cycles.
	busyUntil float64
	bytes     int64
	// per-channel counters, summed by Stats
	reqs        int64
	stallCycles int64
}

// New returns a model for the given DRAM technology.
func New(spec arch.DRAMSpec) *Model {
	return &Model{Spec: spec, ch: make([]channel, spec.Channels)}
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
	if bytes <= 0 {
		bytes = 1
	}
	// Round to burst granularity: a 4-byte random access still moves a
	// burst. Sequential streams coalesce and pay only their own bytes.
	b := bytes
	if !coalesced {
		b = ((bytes + m.Spec.BurstBytes - 1) / m.Spec.BurstBytes) * m.Spec.BurstBytes
	}
	service := float64(b) / m.Spec.BytesPerCyclePerChannel
	c := &m.ch[ch]
	start := float64(now)
	if c.busyUntil > start {
		c.stallCycles += int64(c.busyUntil - start)
		start = c.busyUntil
	}
	c.busyUntil = start + service
	c.bytes += int64(b)
	c.reqs++
	if m.OnService != nil {
		m.OnService(ch, int64(start), int64(c.busyUntil+0.9999))
	}
	done := int64(c.busyUntil+0.9999) + int64(m.Spec.LatencyCycles)
	if done <= now {
		done = now + 1
	}
	return done
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
	return int64(m.ch[ch].busyUntil + 0.9999)
}

// IdleAt reports whether a request issued on the channel at cycle `at` or
// later starts at once: the channel's queue has drained by then, so its
// fractional position no longer affects anything.
func (m *Model) IdleAt(ch int, at int64) bool {
	return m.ch[ch].busyUntil <= float64(at)
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

// ChannelBytes returns the bytes transferred so far on one channel, exposing
// per-channel load imbalance that the aggregate Stats hide.
func (m *Model) ChannelBytes(ch int) int64 {
	if ch < 0 || ch >= len(m.ch) {
		panic(fmt.Sprintf("dram: channel %d out of range", ch))
	}
	return m.ch[ch].bytes
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

// AchievedBytesPerCycle returns the realized bandwidth over an interval of
// cycles.
func (m *Model) AchievedBytesPerCycle(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(m.Stats().TotalBytes) / float64(cycles)
}
