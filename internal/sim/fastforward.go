package sim

// Steady-state fast-forward for the serial event engine. Long runs settle
// into a state that repeats exactly, shifted in time: every unit is at the
// same point of its inner loops with the same pending timer or blocking
// cause, every buffer holds as many elements with the same in-flight arrival
// offsets. The engine's future is a pure function of that relative state, so
// if the state at cycle c2 equals the state at c1 < c2 up to the shift
// P = c2-c1, the next period replays the last one, and so does every period
// after it. The engine then advances k periods at once: it shifts every
// pending time by k·P and adds k times the last period's increment to every
// counter that only grows.
//
//   - The signature (state) is the state relative to now: per unit, done,
//     parked, or the offset of its timer, and the cause of a stall not yet
//     settled; its inner counter levels (all but level 0); a VMU's
//     round-robin positions modulo their fan and its decimation phase. Per
//     edge, occupancy and the arrival offsets of its in-flight elements. The
//     offset of the last firing's end. Every DRAM channel must be idle: a
//     queued channel's fractional busyUntil is not part of the signature.
//   - Stall starts are compared apart from the signature. A unit with an
//     unsettled stall at both captures either began it inside the period
//     (equal offsets; the start shifts with the jump) or stayed parked
//     throughout (equal starts; it keeps its start and settles the whole
//     interval when it wakes).
//   - Linear counters grow by the same amount each period: fired counts and
//     the level-0 index, stall sums, the fired and busy totals, DRAM bytes,
//     requests and queueing cycles, VMU port counters.
//   - Distance-to-end quantities are the one way a linear counter feeds back
//     into the dynamics: a batch never runs past a unit's last firing, and
//     only the last firing wraps level 0. k leaves every unit that fires in
//     the period ffMarginPeriods periods plus one firing short of its total,
//     so within every skipped period each batch sees the bound it saw in the
//     observed one; a unit already inside its margin vetoes the jump. k also
//     keeps the run under its cycle cap, so a cap inside the skipped range
//     still ends the run with the same error.
//   - DRAM timing is float64 arithmetic on absolute cycles. Adding an integer
//     shift to it is exact only while every value stays in one binade
//     [2^m, 2^(m+1)): there the float grid is uniform and contains the
//     integers, so each sum and its rounding move with the shift. A period
//     that issued DRAM requests therefore jumps only within the binade of its
//     start.
//
// Detection is Brent's cycle search on state hashes, over captures taken at
// firings of an anchor unit: the live counter-driven unit with the fewest
// firings, re-chosen when it completes. A capture is one pass over units,
// edges and in-flight elements; it is taken every stride-th anchor firing,
// and the stride doubles while a capture costs more than a quarter of the
// engine work since the previous one (and halves while it costs less than a
// sixteenth), so a run that never repeats pays almost nothing. A repeated
// hash stores the full state there (ref), and the jump waits for the next
// repeat to match ref word for word, so runs that never repeat allocate
// nothing either. Runs that record a profile or a trace and the dense engine
// never fast-forward; CycleEngineNoFastPath turns it off for the equivalence
// guard.

import (
	"math/bits"
	"sync"
)

// ffMarginPeriods is how many periods of firings every firing unit must still
// have ahead of it after a jump. One period plus one firing is what
// exactness needs; the rest is slack.
const ffMarginPeriods = 2

// ffState is the full state at one capture: what a later capture is compared
// with word for word, and what the jump's deltas and stall starts are taken
// against.
type ffState struct {
	at    int64
	sig   []int64 // relative state, as walked by state
	since []int64 // per unit: blockedSince, -1 when no stall is pending
	fired []int64 // per unit: fired
	lin   []int64 // the linear counters, in linear's order
	reqs  int64   // DRAM requests issued so far
}

// fastForward is one run's detector. Instances are pooled across runs with
// their buffers.
type fastForward struct {
	ev        *eventSim
	maxCycles int64

	anchor      *vuState // the unit whose firings trigger captures
	anchorFired int64    // its fired count at the last look
	stride, due int64    // capture every stride-th anchor firing; due counts down
	workAt      int64    // ev.work at the last capture

	// Brent's search on hashes: the checkpoint, how many captures have been
	// compared with it, and how many it waits for before moving on.
	chkAt    int64
	chkHash  uint64
	haveChk  bool
	n, limit int
	// ref is the full state at the checkpoint, kept once a hash repeated.
	ref     ffState
	haveRef bool

	skipped int64 // cycles advanced arithmetically
}

var ffPool = sync.Pool{New: func() any { return new(fastForward) }}

// newFastForward returns the detector for an event run, or nil when the run
// must not fast-forward.
func newFastForward(ev *eventSim, maxCycles int64) *fastForward {
	cs := ev.cs
	if noFastPaths || cs.rec != nil || cs.trace != nil {
		return nil
	}
	ff := ffPool.Get().(*fastForward)
	ff.ev, ff.maxCycles = ev, maxCycles
	ff.stride, ff.due, ff.workAt, ff.skipped = 1, 1, 0, 0
	ff.pickAnchor()
	return ff
}

// release records the skipped cycles on the run and returns the detector to
// the pool.
func (ff *fastForward) release() {
	if ff == nil {
		return
	}
	ff.ev.cs.skipped = ff.skipped
	ff.ev, ff.anchor = nil, nil
	ffPool.Put(ff)
}

// pickAnchor chooses the live counter-driven unit with the fewest firings
// (lowest ID on ties) and restarts the search. Such a unit exists whenever
// the run has not completed, which is when afterCycle runs.
func (ff *fastForward) pickAnchor() {
	ff.anchor = nil
	for _, vs := range ff.ev.cs.vus {
		if vs == nil || !vs.isCounterDriven() || vs.done || vs.total <= 0 {
			continue
		}
		if ff.anchor == nil || vs.total < ff.anchor.total {
			ff.anchor = vs
		}
	}
	if ff.anchor != nil {
		ff.anchorFired = ff.anchor.fired
	}
	ff.haveChk, ff.haveRef = false, false
}

// afterCycle runs at the end of every event cycle that did not complete the
// run; it is one comparison unless the anchor fired.
func (ff *fastForward) afterCycle() {
	if ff.anchor.fired != ff.anchorFired {
		ff.anchorFiring()
	}
}

// anchorFiring re-chooses a completed anchor and samples the state on every
// stride-th firing.
func (ff *fastForward) anchorFiring() {
	ff.anchorFired = ff.anchor.fired
	if ff.anchor.done {
		ff.pickAnchor()
		return
	}
	if ff.due--; ff.due > 0 {
		return
	}
	ff.due = ff.stride
	ff.sample()
}

// sample captures the state and advances the search. A hash equal to the
// checkpoint's either confirms ref, which jumps (or, vetoed, starts over
// here), or stores the state here as ref to be confirmed one period on.
// Otherwise the checkpoint moves here after limit captures, and limit
// doubles.
func (ff *fastForward) sample() {
	ev, cs := ff.ev, ff.ev.cs
	for c := 0; c < cs.dram.Channels(); c++ {
		if !cs.dram.IdleAt(c, ev.now+1) {
			return
		}
	}
	w := sigWalk{h: fnvOffset}
	ff.state(&w)
	switch work := ev.work - ff.workAt; {
	case 4*int64(w.n) > work:
		ff.stride *= 2
	case 16*int64(w.n) < work && ff.stride > 1:
		ff.stride /= 2
	}
	ff.workAt = ev.work
	switch {
	case !ff.haveChk:
		ff.limit = 1
		ff.checkpoint(w.h)
	case w.h == ff.chkHash:
		if ff.haveRef && ff.matchesRef() {
			if k, p := ff.jumpCount(); k > 0 {
				ff.jump(k, p)
			}
		}
		ff.checkpoint(w.h)
		ff.keepRef()
	default:
		if ff.n++; ff.n >= ff.limit {
			ff.checkpoint(w.h)
			ff.limit *= 2
		}
	}
}

// checkpoint makes the current capture, of hash h, Brent's checkpoint.
func (ff *fastForward) checkpoint(h uint64) {
	ff.chkAt, ff.chkHash, ff.haveChk, ff.n = ff.ev.now, h, true, 0
	ff.haveRef = false
}

// keepRef stores the full current state as ref.
func (ff *fastForward) keepRef() {
	ev, r := ff.ev, &ff.ref
	w := sigWalk{keep: true, words: r.sig[:0]}
	ff.state(&w)
	r.sig = w.words
	r.since = append(r.since[:0], ev.blockedSince...)
	r.fired = r.fired[:0]
	for _, vs := range ev.cs.vus {
		var f int64
		if vs != nil {
			f = vs.fired
		}
		r.fired = append(r.fired, f)
	}
	r.lin = r.lin[:0]
	ff.linear(func(v int64) int64 {
		r.lin = append(r.lin, v)
		return v
	})
	r.at, r.reqs = ev.now, ev.cs.dram.Stats().TotalReqs
	ff.haveRef = true
}

// matchesRef reports whether the current state repeats ref exactly.
func (ff *fastForward) matchesRef() bool {
	r := &ff.ref
	w := sigWalk{ref: r.sig}
	ff.state(&w)
	if w.diff || w.n != len(r.sig) {
		return false
	}
	// The signature says which units are parked or due; a pending stall must
	// have begun as long ago (inside the period) or at the same cycle
	// (parked throughout).
	for id, s1 := range r.since {
		s2 := ff.ev.blockedSince[id]
		if s2 != s1 && (s1 < 0 || s2 < 0 || s2-ff.ev.now != s1-r.at) {
			return false
		}
	}
	return true
}

// jumpCount returns how many periods the run may skip from here, and the
// period. See the file comment for each bound.
func (ff *fastForward) jumpCount() (k, p int64) {
	ev, cs, r := ff.ev, ff.ev.cs, &ff.ref
	p = ev.now - r.at
	k = (ff.maxCycles - 1 - ev.now) / p
	for id, vs := range cs.vus {
		if vs == nil || !vs.isCounterDriven() || vs.done {
			continue
		}
		if d := vs.fired - r.fired[id]; d > 0 {
			if m := (vs.total-vs.fired-1)/d - ffMarginPeriods; m < k {
				k = m
			}
		}
	}
	if cs.dram.Stats().TotalReqs != r.reqs {
		hi := int64(1) << bits.Len64(uint64(r.at))
		if hi > 1<<51 {
			return 0, p
		}
		if m := (hi - 3 - ev.now) / p; m < k {
			k = m
		}
	}
	return k, p
}

// jump advances the run by k periods of p cycles.
func (ff *fastForward) jump(k, p int64) {
	ev, cs, r := ff.ev, ff.ev.cs, &ff.ref
	shift := k * p
	i := 0
	ff.linear(func(v int64) int64 {
		v += k * (v - r.lin[i])
		i++
		return v
	})
	ev.now += shift
	cs.now = ev.now
	ev.lastFire += shift
	ev.arrivals.clear()
	ev.timers.clear()
	for _, es := range cs.edges {
		if es == nil || es.infl == 0 {
			continue
		}
		for j := 0; j < es.infl; j++ {
			es.ring[(es.head+j)&(len(es.ring)-1)] += shift
		}
		ev.arrivals.push(ev.now, es.ring[es.head], int32(es.e.ID))
	}
	for id, vs := range cs.vus {
		if vs == nil || vs.done {
			continue
		}
		// A pending stall: the unit is parked, or a pop from a lower ID woke
		// it for the next cycle.
		if s := ev.blockedSince[id]; s > r.at {
			ev.blockedSince[id] = s + shift
		}
		if !ev.parked[id] {
			ev.timerAt[id] += shift
			ev.timers.push(ev.now, ev.timerAt[id], int32(id))
		}
	}
	ff.anchorFired = ff.anchor.fired
	ff.skipped += shift
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// sigWalk receives the relative state word by word. It always hashes (FNV-1a
// over words when h starts at fnvOffset), and also keeps the words or
// compares them with ref.
type sigWalk struct {
	h     uint64
	n     int
	keep  bool
	words []int64
	ref   []int64
	diff  bool
}

func (w *sigWalk) put(x int64) {
	w.h = (w.h ^ uint64(x)) * fnvPrime
	if w.keep {
		w.words = append(w.words, x)
	}
	if w.ref != nil && (w.n >= len(w.ref) || w.ref[w.n] != x) {
		w.diff = true
	}
	w.n++
}

// state walks the relative state at the end of the current cycle.
func (ff *fastForward) state(w *sigWalk) {
	ev, cs := ff.ev, ff.ev.cs
	now := ev.now
	for id, vs := range cs.vus {
		if vs == nil {
			continue
		}
		// Done, parked, or due after a timer; a pending stall's cause.
		var s int64
		switch {
		case vs.done:
		case ev.parked[id]:
			s = 1
		default:
			s = 2 | (ev.timerAt[id]-now)<<4
		}
		if ev.blockedSince[id] >= 0 {
			s |= int64(ev.blockedCause[id]) << 2
		}
		w.put(s)
		for i := 1; i < len(vs.idx); i++ {
			w.put(int64(vs.idx[i]))
		}
		if len(vs.ports) > 0 {
			w.put(int64(vs.rrIn % len(vs.ports)))
			for _, pt := range vs.ports {
				// A port without inputs (outputs) never advances rrIn (rrOut).
				w.put(int64(pt.rrIn % max(len(pt.ins), 1)))
				w.put(int64(pt.rrOut % max(len(pt.outs), 1)))
				w.put(pt.served % int64(pt.decimate))
			}
		}
	}
	for _, es := range cs.edges {
		if es == nil {
			continue
		}
		w.put(int64(es.occ) | int64(es.infl)<<32)
		for i := 0; i < es.infl; i++ {
			w.put(es.ring[(es.head+i)&(len(es.ring)-1)] - now)
		}
	}
	w.put(ev.lastFire - now)
}

// linear visits every counter that grows by a fixed amount each period, in
// one fixed order, replacing each with f's answer.
func (ff *fastForward) linear(f func(int64) int64) {
	cs := ff.ev.cs
	for _, vs := range cs.vus {
		if vs == nil {
			continue
		}
		vs.fired = f(vs.fired)
		vs.stallIn, vs.stallOut, vs.stallToken = f(vs.stallIn), f(vs.stallOut), f(vs.stallToken)
		if len(vs.idx) > 0 {
			vs.idx[0] = int(f(int64(vs.idx[0])))
		}
		if len(vs.ports) > 0 {
			vs.rrIn = int(f(int64(vs.rrIn)))
			for _, pt := range vs.ports {
				pt.rrIn, pt.rrOut, pt.served = int(f(int64(pt.rrIn))), int(f(int64(pt.rrOut))), f(pt.served)
			}
		}
	}
	cs.firedTotal, cs.busyCycles = f(cs.firedTotal), f(cs.busyCycles)
	for c := 0; c < cs.dram.Channels(); c++ {
		b, r, s := cs.dram.Counters(c)
		cs.dram.SetCounters(c, f(b), f(r), f(s))
	}
}
