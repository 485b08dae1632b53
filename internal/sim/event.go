package sim

// The event-driven engine. Identical semantics to runDense — same firing
// cycles, same arrival schedules, same stall totals, and under the profiler
// the same recording, interval by interval — but cost proportional to
// activity instead of cycles x (edges + units):
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
//   - Hooks: the unit steppers are shared with the dense engine, and every
//     element they put on an edge or take off it goes through
//     cycleSim.schedule or cycleSim.pop. Both call the engine through
//     cs.ev, a plain pointer newEventSim sets and the dense engine leaves
//     nil: schedule arms the edge's arrival event (onSchedule), pop wakes
//     its parked source (onPop).
//   - Parking rule: a blocked counter-driven unit parks until woken; a
//     forwarder (VMU, merge, retime, sync) parks after an idle evaluation and
//     also after a productive one that drained every input. Exact because a
//     forwarder moves nothing without an input element and carries no stall
//     accounting, and the next delivery on an input wakes it — the
//     re-evaluation skipped was a guaranteed no-op. A parked unit's stall is
//     charged when it wakes, whole, to the cause and peer its blocking edge
//     gave when it parked: that edge cannot change unseen, and the cause is
//     a function of the edge alone, so dense charges each of those cycles
//     the same.
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
//   - Component runs (component.go): a design whose parts share no stream
//     and no DRAM channel — the independent instances an unrolled outer loop
//     compiles to — runs one part after another on the one state, each from
//     cycle 0, and the run lasts as long as its longest part. Exact because
//     no unit reads or writes anything outside its part, and every Result
//     field is a sum or a maximum over parts. Profiled and traced runs, a
//     part that deadlocks or reaches the cycle cap, and the few designs
//     component.go lists run as one loop over the whole design instead.
//   - Steady-state fast-forward (fastforward.go): when the state of the
//     part being run, relative to now, recurs with period P, k whole periods
//     are advanced arithmetically — pending times and busy DRAM queues shift
//     by k·P, counters that only grow add k times the period's increment.
//     A buffer's occupancy and one inner counter level per unit may instead
//     drift by a fixed δ each period (a filling or draining buffer, a long
//     inner loop); the jump adds k·δ to them. Exact because the engine's
//     future is a pure function of the relative state, DRAM backlogs in
//     integer ticks included, while no unit reaches its last firing and no
//     drifting word crosses a threshold a decision compares it with.
//     A capture is taken at every firing of an anchor unit, so when captures
//     are taken depends only on the simulated run. The search restarts
//     whenever a unit of the part completes, since each completion starts a
//     new phase with a new period, and it jumps on the first repeat of a
//     checkpoint.
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

// CycleEngineNoFastPath runs the event engine with the steady-state
// fast-forward and the split into components disabled — the reference side
// of TestStallFreeFastPath's and TestFastForwardExact's bit-identical guards.
func CycleEngineNoFastPath(d *Design, maxCycles int64) (*Result, error) {
	cs, err := newCycleSim(d)
	if err != nil {
		return nil, err
	}
	cs.noFastPaths = true
	return cs.runEvent(cycleCap(maxCycles))
}

type eventSim struct {
	cs *cycleSim
	// c is the component being run; lo and hi bound the words of curr its
	// units' bits live in.
	c      *component
	lo, hi int

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
	// blockedSince, blockedCause and blockedPeer record a parked unit's stall
	// interval. Its blocking edge cannot change while the unit is parked
	// (nothing it reads changed, or it would have been woken), and the cause
	// and peer are functions of that edge alone, so the whole interval
	// settles against one cause at the next evaluation — the cause dense
	// charges each of its cycles.
	blockedSince []int64
	blockedCause []profile.Cause
	blockedPeer  []int32

	processing int // VU ID being stepped; -1 outside the stepping pass
	now        int64
	lastFire   int64
	remaining  int
	progressed bool
	// work counts deliveries and unit visits, the engine effort the
	// fast-forward's capture cost is measured against.
	work int64
}

// newEventSim builds the event-engine state over cs and installs it as cs.ev,
// so cs.schedule and cs.pop call it; each run starts with start.
func newEventSim(cs *cycleSim) *eventSim {
	n := len(cs.vus)
	ev := &eventSim{
		cs:           cs,
		curr:         make([]uint64, (n+63)/64),
		timerAt:      make([]int64, n),
		parked:       make([]bool, n),
		blockedSince: make([]int64, n),
		blockedCause: make([]profile.Cause, n),
		blockedPeer:  make([]int32, n),
		processing:   -1,
		lastFire:     -1,
	}
	for i := range ev.blockedSince {
		ev.blockedSince[i] = -1
	}
	ev.arrivals.init(len(cs.edges))
	ev.timers.init(n)
	cs.ev = ev
	return ev
}

// start readies a run of component c from cycle 0: both queues and curr are
// empty, and every unit of c is a candidate at cycle 0 — the dense engine's
// first full pass. Units outside c keep whatever state an earlier run left.
func (ev *eventSim) start(c *component) {
	ev.c = c
	ev.lo, ev.hi = 0, -1
	if n := len(c.vus); n > 0 {
		ev.lo, ev.hi = c.vus[0].id>>6, c.vus[n-1].id>>6
	}
	ev.now, ev.lastFire, ev.work = 0, -1, 0
	ev.processing, ev.progressed = -1, false
	ev.arrivals.clear()
	ev.timers.clear()
	clear(ev.curr)
	ev.currAny = false
	ev.remaining = c.remaining
	for _, vs := range c.vus {
		ev.wakeNow(vs.id)
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
		for w := ev.lo; w <= ev.hi; w++ {
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

// runEvent advances the simulation to completion. A design whose components
// share no stream and no DRAM channel (component.go) runs one component after
// another, each from cycle 0; the run's length is the longest component's.
// Otherwise — and, on a fresh copy of the state, whenever a component
// deadlocks or reaches the cycle cap — it runs as one loop over the whole
// design, which reports a stuck run exactly as it always has.
func (cs *cycleSim) runEvent(maxCycles int64) (*Result, error) {
	if comps := cs.components(); comps != nil {
		if r, err := cs.runComponents(comps, maxCycles); err == nil {
			return r, nil
		}
		fresh, err := newCycleSim(cs.d)
		if err != nil {
			return nil, err
		}
		*cs = *fresh
	}
	return cs.runComponents([]*component{cs.whole()}, maxCycles)
}

// runComponents runs each component to completion in turn on one
// event-engine state.
func (cs *cycleSim) runComponents(comps []*component, maxCycles int64) (*Result, error) {
	ev := newEventSim(cs)
	end := int64(0)
	for _, c := range comps {
		e, err := ev.run(c, maxCycles)
		if err != nil {
			return nil, err
		}
		end = max(end, e)
	}
	return cs.buildResult(end+1, "cycle"), nil
}

// run advances component c from cycle 0 until its last counter-driven unit
// completes, event by event, and whole periods at a time once its state
// recurs (fastforward.go). It returns the cycle the component's last firing
// ends on.
func (ev *eventSim) run(c *component, maxCycles int64) (int64, error) {
	cs := ev.cs
	ev.start(c)
	ff := newFastForward(ev, maxCycles)
	defer ff.release()
	for {
		cs.now = ev.now
		ev.processing = -1
		ev.work += int64(ev.deliverDue() + ev.scanCurr())
		if ev.remaining == 0 {
			end := max(ev.now, ev.lastFire)
			if end+1 >= maxCycles {
				return 0, fmt.Errorf("sim: exceeded %d cycles without completing", maxCycles)
			}
			cs.spanned += end + 1
			cs.work += ev.work
			return end, nil
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
			return 0, fmt.Errorf("sim: deadlock at cycle %d: %s", cs.now, cs.describeStuck())
		}
		if next >= maxCycles {
			return 0, fmt.Errorf("sim: exceeded %d cycles without completing", maxCycles)
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
func (ev *eventSim) onPop(es *edgeState) {
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
	id := vs.id
	var moved bool
	switch vs.kind {
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
	// Settle the stall interval accumulated while parked.
	if s := ev.blockedSince[id]; s >= 0 {
		cs.stall(vs, ev.blockedCause[id], ev.blockedPeer[id], s, ev.now-s)
		ev.blockedSince[id] = -1
	}
	if cause, peer := cs.blockCause(vs); cause != profile.CauseBusy {
		// Park. The next deliver/pop on the blocking edge wakes us.
		ev.blockedSince[id], ev.blockedCause[id], ev.blockedPeer[id] = ev.now, cause, peer
		ev.parked[id] = true
		return
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
	if !vs.batches() {
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
			if src.kind == dfg.VCUMerge || es.space() < 1 {
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

// batches reports whether counter-driven unit vs may fire more than once in
// one step: every one but a VAG or a unit with an inAny choice.
func (vs *vuState) batches() bool {
	return vs.kind != dfg.VAG && len(vs.inAny) == 0
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
	if vs.kind.IsCompute() {
		cs.busyCycles += k
	}
	if cs.rec != nil {
		cs.rec.Record(vs.id, profile.CauseBusy, cs.now, k, profile.NoPeer)
	}
	if vs.fired >= vs.total {
		vs.done = true
	}
}
