package sim

// The event-driven engine. Identical semantics to runDense — same firing
// cycles, same arrival schedules, same stall totals — but cost proportional
// to activity instead of cycles x (edges + units):
//
//   - Calendar queue: each edge with undelivered elements holds one armed
//     arrival event at its earliest one, each unit waiting for a future cycle
//     one timer; both sit in a calQueue (calqueue.go), so queueing, delivering
//     and finding the next event cycle are O(1). Exact because the order in
//     which one cycle's events pop is unobservable: a delivery touches only
//     its own edge's occ/infl and sets a wake bit, a timer only sets a bit in
//     curr, and all of both precede unit evaluation.
//   - Wake lists: a unit is re-evaluated only when an edge it waits on
//     changes. Edges are point-to-point, so the wake lists degenerate to two
//     waiters — a delivery wakes the edge's destination (occupancy waiter),
//     a pop wakes its source (space waiter). Invariant: any state a unit's
//     enable check reads changes only through deliver or pop, and both wake
//     the affected waiter, so a parked unit can never miss its unblocking.
//   - Parking rule: a blocked counter-driven unit parks until woken; a
//     forwarder (VMU, merge, retime, sync) parks after an idle evaluation and
//     also after a productive one that drained every input. Exact because a
//     forwarder moves nothing without an input element and carries no stall
//     accounting, and the next delivery on an input wakes it — the
//     re-evaluation skipped was a guaranteed no-op.
//   - In-flight rings: an edge's undelivered arrival cycles live in a ring
//     of at least cap entries (edgeState.ring), fixed for the run. Exact
//     because every producer checks space() before it schedules, so
//     occ+infl <= cap bounds the entries and none is overwritten undelivered.
//     (Only a buffer declared deeper than ringStartMax starts smaller than
//     its cap, and doubles its ring if it ever fills.)
//   - Batch firing: when a counter-driven unit can provably fire k
//     back-to-back times (see batchSize), the k firings collapse into one
//     scheduling step with the out-arrivals staggered exactly as dense would
//     have produced them.
//   - Steady-state fast-forward (runEvent only; fastforward.go): when the
//     state relative to now recurs with period P, k whole periods are
//     advanced arithmetically — pending times shift by k·P, counters that
//     only grow add k times the period's increment. Exact because the
//     engine's future is a pure function of the relative state while no
//     unit nears its last firing and DRAM float timing stays in one binade.
//
// Intra-cycle ordering mirrors the dense engine's ascending-VU-ID pass:
// woken units are stepped in ascending ID order off a bitset, and a pop
// performed by unit j is visible to a waiter i in the same cycle only when
// i > j (i is still ahead of j in the ID order); otherwise the wake lands on
// the next cycle.

import (
	"fmt"
	"math/bits"

	"sara/internal/dfg"
	"sara/internal/profile"
)

type eventSim struct {
	cs *cycleSim

	// noStall marks units the analytic model proves can never block (see
	// StallFreeUnits): their evaluation skips the blockCause check and the
	// stall-interval bookkeeping entirely.
	noStall []bool

	// arrivals holds one armed delivery per edge with undelivered elements,
	// by edge ID; timers one future re-evaluation per unit, by VU ID. A live
	// unit is parked, holds a curr bit, or holds a timer — never two of them —
	// which is what lets both queues link their entries by ID.
	arrivals calQueue
	timers   calQueue
	// curr is the set of units to step this cycle, one bit per VU ID,
	// scanned in ascending order. Same-cycle wakes only ever set bits above
	// the scan cursor, so a single forward pass sees every woken unit.
	curr    []uint64
	currAny bool
	// timerAt is the cycle of each unit's pending timer. The calendar wheel
	// keeps only bucket links, so the fast-forward reads timers from here.
	timerAt []int64

	// parked marks units waiting on an edge change. A non-parked live unit
	// always holds a curr or timer entry (it reschedules itself after every
	// evaluation), so pops and deliveries only need to wake parked units. A
	// unit mid-batch holds a timer and is never parked, so nothing wakes it
	// before its batch ends.
	parked []bool
	// blockedSince/blockedCause record a parked unit's stall interval; the
	// cause cannot change while the unit is parked (nothing it reads changed,
	// or it would have been woken), so the whole interval settles against one
	// category at the next evaluation — matching dense cycle-by-cycle counts.
	blockedSince []int64
	blockedCause []stallKind
	// blockedRef/blockedPeer pin the profiler's refined cause at park time:
	// refinement reads the blocking edge's state (e.g. in-flight counts), and
	// by settle time a delivery has usually changed it. Dense re-refines every
	// cycle instead, so the refined input split (upstream vs network) may
	// legitimately differ between engines; the coarse sums are identical.
	blockedRef  []profile.Cause
	blockedPeer []int32

	processing int // VU ID being stepped; -1 outside the stepping pass
	now        int64
	lastFire   int64
	remaining  int
	progressed bool
	// work counts deliveries and unit visits, the engine effort the
	// fast-forward's capture cost is measured against.
	work int64
}

// newEventSim builds the event-engine state over cs; the caller still must
// install cs.onSchedule/cs.onPop and seed with seedWakes.
func newEventSim(cs *cycleSim) *eventSim {
	n := len(cs.vus)
	noStall := make([]bool, n)
	if !noFastPaths {
		noStall = stallFreeStates(cs)
	}
	ev := &eventSim{
		cs:           cs,
		noStall:      noStall,
		curr:         make([]uint64, (n+63)/64),
		timerAt:      make([]int64, n),
		parked:       make([]bool, n),
		blockedSince: make([]int64, n),
		blockedCause: make([]stallKind, n),
		blockedRef:   make([]profile.Cause, n),
		blockedPeer:  make([]int32, n),
		processing:   -1,
		lastFire:     -1,
	}
	for i := range ev.blockedSince {
		ev.blockedSince[i] = -1
	}
	ev.arrivals.init(len(cs.edges))
	ev.timers.init(n)
	return ev
}

// seedWakes marks every live unit a candidate at cycle 0 — the dense
// engine's first full pass — and counts the units that must complete.
func (ev *eventSim) seedWakes() {
	ev.remaining = 0
	for id, vs := range ev.cs.vus {
		if vs == nil {
			continue
		}
		if vs.isCounterDriven() && vs.total > 0 {
			ev.remaining++
		}
		ev.wakeNow(id)
	}
}

// wakeDue turns every timer due at ev.now into a wake for this cycle.
func (ev *eventSim) wakeDue() {
	for id := ev.timers.popDue(ev.now); id >= 0; id = ev.timers.popDue(ev.now) {
		ev.wakeNow(int(id))
	}
}

// deliverDue delivers every arrival due at ev.now and wakes each receiver.
// All deliveries precede unit evaluation, as in the dense engine. Each edge
// holds one armed event at its earliest undelivered arrival; delivering
// re-arms it for the next one. Returns the deliveries performed.
func (ev *eventSim) deliverDue() int {
	cs := ev.cs
	n := 0
	for ei := ev.arrivals.popDue(ev.now); ei >= 0; ei = ev.arrivals.popDue(ev.now) {
		es := cs.edges[ei]
		es.deliver(ev.now)
		if na := es.nextArrival(); na >= 0 {
			ev.arrivals.push(ev.now, na, ei)
		} else {
			es.armed = false
		}
		ev.wakeUnit(int(es.e.Dst))
		n++
	}
	return n
}

// scanCurr steps the woken units in ascending ID order. Same-cycle wakes only
// ever target IDs above the actor, so one forward pass over the bitset sees
// every woken unit. Returns the number of bits consumed (visits, not steps).
func (ev *eventSim) scanCurr() int {
	cs := ev.cs
	ev.progressed = false
	n := 0
	if ev.currAny {
		ev.currAny = false
		for w := 0; w < len(ev.curr); w++ {
			for ev.curr[w] != 0 {
				b := bits.TrailingZeros64(ev.curr[w])
				ev.curr[w] &^= 1 << uint(b)
				id := w*64 + b
				n++
				vs := cs.vus[id]
				if vs == nil {
					continue
				}
				ev.processing = id
				ev.step(vs)
			}
		}
	}
	ev.processing = -1
	return n
}

// nextEventAt returns the earliest pending event cycle (arrival or timer), or
// -1 when both queues are empty.
func (ev *eventSim) nextEventAt() int64 {
	next := ev.arrivals.nextAt(ev.now)
	if t := ev.timers.nextAt(ev.now); t >= 0 && (next < 0 || t < next) {
		next = t
	}
	return next
}

// runEvent advances the simulation to completion, event by event, and whole
// periods at a time once its state recurs (fastforward.go).
func (cs *cycleSim) runEvent(maxCycles int64) (*Result, error) {
	ev := newEventSim(cs)
	cs.onSchedule = ev.onSchedule
	cs.onPop = ev.onPop
	ev.seedWakes()
	ff := newFastForward(ev, maxCycles)
	defer ff.release()
	for {
		cs.now = ev.now
		ev.processing = -1
		ev.work += int64(ev.deliverDue() + ev.scanCurr())
		if ev.remaining == 0 {
			end := ev.now
			if ev.lastFire > end {
				end = ev.lastFire
			}
			if end+1 >= maxCycles {
				return nil, fmt.Errorf("sim: exceeded %d cycles without completing", maxCycles)
			}
			return cs.buildResult(end+1, "cycle"), nil
		}
		if ff != nil {
			ff.afterCycle()
		}
		next := ev.nextEventAt()
		if next < 0 && ev.progressed {
			// The dense engine detects deadlock on its first fully idle
			// cycle, one past the last progress: visit it too (if the cycle
			// limit lets either engine get there).
			next = ev.now + 1
		}
		if next < 0 {
			return nil, fmt.Errorf("sim: deadlock at cycle %d: %s", cs.now, cs.describeStuck())
		}
		if next >= maxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles without completing", maxCycles)
		}
		ev.now = next
		ev.wakeDue()
	}
}

// onSchedule arms the edge's arrival event if none is in flight. Arrivals are
// scheduled in non-decreasing order per edge (one producer, monotone
// latency), so an armed event always sits at the earliest undelivered
// arrival and later arrivals are found when the edge re-arms on delivery.
func (ev *eventSim) onSchedule(es *edgeState, at int64) {
	if !es.armed {
		es.armed = true
		ev.arrivals.push(ev.now, at, int32(es.e.ID))
	}
}

// onPop wakes the edge's space-waiter (its source) if it is parked. The pop
// is visible to the source in the same cycle only if the source is later in
// the ID order than the acting unit, exactly as in the dense engine's
// in-order pass.
func (ev *eventSim) onPop(es *edgeState, n int) {
	id := int(es.e.Src)
	if !ev.parked[id] {
		return
	}
	if id > ev.processing {
		ev.wakeNow(id)
	} else {
		ev.wakeAt(id, ev.now+1)
	}
}

// wakeUnit enqueues a parked unit for evaluation this cycle (the delivery
// path; a non-parked unit already holds its own wake).
func (ev *eventSim) wakeUnit(id int) {
	if ev.parked[id] {
		ev.wakeNow(id)
	}
}

func (ev *eventSim) wakeNow(id int) {
	ev.parked[id] = false
	ev.curr[id>>6] |= 1 << uint(id&63)
	ev.currAny = true
}

func (ev *eventSim) wakeAt(id int, at int64) {
	if at <= ev.now {
		ev.wakeNow(id)
		return
	}
	ev.parked[id] = false
	ev.timerAt[id] = at
	ev.timers.push(ev.now, at, int32(id))
}

// step evaluates one unit at the current cycle.
func (ev *eventSim) step(vs *vuState) {
	cs := ev.cs
	id := int(vs.u.ID)
	var moved bool
	switch vs.u.Kind {
	case dfg.VMU:
		moved = cs.stepVMU(vs)
	case dfg.VCUMerge:
		moved = cs.stepMerge(vs)
	case dfg.VCURetime:
		moved = cs.stepRetime(vs)
	case dfg.VCUSync:
		moved = cs.stepSync(vs)
	default:
		ev.stepCounter(vs, id)
		return
	}
	// A forwarder that moved something looks again next cycle only while an
	// input still holds an element; drained (or idle), it parks until the
	// next delivery on an input or pop on an output wakes it.
	if moved {
		ev.progressed = true
		for _, es := range vs.inFire {
			if es.occ > 0 {
				ev.wakeAt(id, ev.now+1)
				return
			}
		}
	}
	ev.parked[id] = true
}

// stepCounter evaluates one counter-driven unit: settle its stall interval,
// then park it blocked or fire it (batched when provably safe).
func (ev *eventSim) stepCounter(vs *vuState, id int) {
	cs := ev.cs
	if vs.done {
		return
	}
	// Units the analytic model proves stall-free never park, so their
	// settle and blockCause work is a no-op — skip it (identical results
	// by construction; TestStallFreeFastPath guards the claim).
	if !ev.noStall[id] {
		// Settle the stall interval accumulated while parked.
		if ev.blockedSince[id] >= 0 {
			n := ev.now - ev.blockedSince[id]
			vs.addStall(ev.blockedCause[id], n)
			if cs.rec != nil && n > 0 {
				cs.rec.Record(id, ev.blockedRef[id], ev.blockedSince[id], n, ev.blockedPeer[id])
			}
			ev.blockedSince[id] = -1
		}
		cause, edge := cs.blockCause(vs)
		if cause != stallNone {
			// Park. The next deliver/pop on the blocking edge wakes us.
			ev.blockedSince[id] = ev.now
			ev.blockedCause[id] = cause
			if cs.rec != nil {
				ev.blockedRef[id], ev.blockedPeer[id] = cs.refineStall(cause, edge)
			}
			ev.parked[id] = true
			return
		}
	}
	k := ev.batchSize(vs)
	if k <= 1 {
		k = 1
		cs.fireCounterUnit(vs)
	} else {
		ev.batchFire(vs, k)
	}
	ev.progressed = true
	if end := ev.now + k - 1; end > ev.lastFire {
		ev.lastFire = end
	}
	if vs.done {
		ev.remaining--
		return
	}
	ev.wakeAt(id, ev.now+k)
}

// batchSize returns how many back-to-back firings of vs are provably
// identical to what the dense engine would execute over the next k cycles:
//
//   - k never reaches a counter wrap (wrap-triggered pushes/pops and the
//     carry cascade are handled one firing at a time), never exceeds the
//     occupancy of any per-firing input or the space of any per-firing
//     output, and never includes a VAG firing (DRAM issue order and queueing
//     are per-request) or an inAny choice (bank selection is stateful).
//   - Level-popped (holdIn) inputs only need occupancy >= 1 throughout the
//     window; nothing but deliveries touches them mid-batch, and deliveries
//     only raise occupancy.
//   - The k input pops are applied up front, which inflates the producers'
//     view of free space relative to dense's one-pop-per-cycle. That is
//     observable only if a producer was space-blocked: we require each
//     per-firing input to have space >= 1 before the batch (then dense's
//     producer is never space-blocked inside the window either — the
//     consumer frees one slot per cycle and the producer fills at most one,
//     so enablement is identical in both worlds) and fall back to single
//     firing otherwise. Merge producers can push more than one element per
//     cycle into an edge, so a merge-fed input disables batching outright.
func (ev *eventSim) batchSize(vs *vuState) int64 {
	cs := ev.cs
	if vs.u.Kind == dfg.VAG || len(vs.inAny) > 0 || cs.trace != nil {
		return 1
	}
	k := vs.total - vs.fired
	if n := len(vs.idx); n > 0 {
		if room := int64(vs.u.Counters[n-1].Trip - 1 - vs.idx[n-1]); room < k {
			k = room
		}
	}
	if k < 2 {
		return 1
	}
	for _, es := range vs.inFire {
		if int64(es.occ) < k {
			k = int64(es.occ)
		}
		src := cs.vus[es.e.Src]
		if src != nil && !(src.done && src.isCounterDriven()) {
			if src.u.Kind == dfg.VCUMerge || es.space() < 1 {
				return 1
			}
		}
	}
	for _, es := range vs.outFire {
		if s := int64(es.space()); s < k {
			k = s
		}
	}
	if k < 2 {
		return 1
	}
	return k
}

// batchFire performs k back-to-back firings in one scheduling step. The
// caller (batchSize) has established no counter wraps, no VAG work, and no
// inAny choices occur in the window.
func (ev *eventSim) batchFire(vs *vuState, k int64) {
	cs := ev.cs
	for _, es := range vs.inFire {
		cs.pop(es, int(k))
	}
	lat := int64(vs.u.Stages)
	for _, es := range vs.outFire {
		// Stagger the arrivals exactly as k single-cycle firings would.
		for i := int64(0); i < k; i++ {
			cs.schedule(es, cs.now+i+lat+es.latency)
		}
	}
	if n := len(vs.idx); n > 0 {
		vs.idx[n-1] += int(k) // no carry: batchSize kept the innermost level short of a wrap
	}
	vs.fired += k
	cs.firedTotal += k
	if vs.u.Kind.IsCompute() {
		cs.busyCycles += k
	}
	if cs.rec != nil {
		cs.rec.Record(int(vs.u.ID), profile.CauseBusy, cs.now, k, profile.NoPeer)
	}
	if vs.fired >= vs.total {
		vs.done = true
	}
}
