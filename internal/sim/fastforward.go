package sim

// Steady-state fast-forward for the event engine, one component at a time
// (component.go). Everything below is about the component being run: its
// units, its edges, the DRAM channels its VAGs use. Parallel instances drift
// out of phase, so the state of a whole design seldom repeats while each
// instance's does. Long runs settle into a state that repeats, shifted in
// time: every unit is at the same point of its inner loops with the same
// pending timer or blocking cause, every buffer holds as many elements with
// the same in-flight arrival offsets. The engine's future is a pure function
// of that relative state, so if the state at cycle c2 equals the state at
// c1 < c2 up to the shift P = c2-c1, the next period replays the last one,
// and so does every period after it. The engine then advances k periods at
// once: it shifts every pending time by k·P and adds k times the last
// period's increment to every counter that only grows.
//
//   - The signature (state) is the state relative to now: per unit, done,
//     parked, or the offset of its timer, and the cause of a stall not yet
//     settled (a profile.Cause; its peer is read only by profiled runs,
//     which never fast-forward); its inner counter levels (all but level
//     0); a VMU's round-robin positions and its ports' decimation phases,
//     which the engine keeps wrapped to their fans (vmuPort), so they are
//     read as they are. Per edge, its occupancy, its in-flight count and the arrival
//     offsets of its in-flight elements. The offset of the last firing's
//     end. Per DRAM channel of the component, the ticks of transfer still
//     queued past the next cycle (dram.Model.Backlog): channel time is an
//     integer count of ticks, so a busy channel's state is exact and the
//     jump shifts its queue by k·P cycles like any pending time.
//   - Drifting words. Two kinds of word may differ from the checkpoint's by
//     a constant δ per period where every other word repeats: an edge's
//     occupancy (a buffer that fills or drains because its producer and
//     consumer run at different rates) and one inner counter level per unit
//     (a long inner loop), the latter only if it did not wrap in the period:
//     δ > 0 and δ·Π(inner trips) equals the unit's firings in the period.
//     The jump adds k·δ to each. The engine compares such a word only with
//     thresholds, and above them decides alike whatever its value: a unit
//     reads an input's occupancy only up to its batch bound (batchBound:
//     innermost trip − 1 for a unit that batches, its port's decimation for
//     a VMU, 1 otherwise) and an output's free space likewise, and a level
//     only as to whether it wraps (at trip − 1) or, innermost in a unit that
//     batches, as the room that caps a batch. So k is also capped
//     (driftRoom) to keep every drifting word clear of its thresholds in the
//     observed period and in every skipped one: occupancy at or above the
//     consumer's batch bound, space at or above the producer's, a level at
//     most trip − 2, and a drifting innermost level of a batching unit with
//     room at least the least capacity among its per-firing edges, so that
//     an occupancy or a space caps every batch before the room does. The
//     least value inside a period is bounded without per-cycle tracking:
//     occupancy falls only by pops, so it never dips below its value at the
//     period's start less the period's pops (edgeState.pops, a linear
//     counter), and space falls only by schedules, δ plus the pops. Then
//     every decision of a skipped period reads the same outcome as the
//     observed one, which moves each drifting word by δ again: the drift
//     repeats, and so does the rest of the state.
//   - Stall starts are compared apart from the signature. A unit with an
//     unsettled stall at both captures either began it inside the period
//     (equal offsets; the start shifts with the jump) or stayed parked
//     throughout (equal starts; it keeps its start and settles the whole
//     interval when it wakes).
//   - Linear counters grow by the same amount each period: fired counts and
//     the level-0 index, stall sums, the fired and busy totals, DRAM bytes,
//     requests and queueing cycles, the elements VMU ports served, each
//     edge's pops. Every value a period touches moves by a whole number of
//     cycles or ticks, so no floating-point argument is needed.
//   - Distance-to-end quantities are the one way a linear counter feeds back
//     into the dynamics: a batch never runs past a unit's last firing, and
//     only the last firing wraps level 0. k leaves every unit that fires in
//     the period at least one firing short of its total, and that is all
//     exactness needs: the last firing must not fall inside a skipped
//     period, and a batch counts its firings when it starts, so a unit that
//     ends the last skipped period one firing short started every batch of
//     those periods more than the batch's length from its end; its
//     distance-to-end bounds (total − fired, and for a one-level counter the
//     room before level 0 wraps, one less) never cut a batch the observed
//     period ran, and no slack of whole periods beyond that one firing is
//     needed. A unit already that close vetoes the jump. k also keeps
//     the run under its cycle cap, so a cap inside the skipped range still
//     ends the run with the same error.
//
// Detection is Brent's cycle search over captures taken at firings of an
// anchor unit: the live counter-driven unit with the fewest firings. Every
// completion of a counter-driven unit of the component starts a new phase,
// and the search restarts there from limit 1 with a re-chosen anchor. That
// loses no repeat: done is part of the signature, so no capture taken
// before a completion equals one taken after it. Designs whose parallel
// instances finish one at a time (rf p128's eight tree traversals) run
// through as many phases, and a limit carried over from the last phase
// would hold each new phase's checkpoint back by up to as many captures as
// that phase took. Brent's search moves its checkpoint when a window of
// limit captures ends, and alone it would drop the old one there; a period
// longer than the window current when the state starts repeating would
// then be caught only by a later checkpoint, 1.5–2.5 periods in (rf p128's
// first phase repeats every 11 517 cycles from about cycle 18 565 and was
// caught at 50 233; kept, its checkpoint at 18 601 catches it at 30 118).
// So the search keeps the phase's last ffKeep checkpoints, newest first,
// and compares every capture with each of them. A match with any is a
// repeat measured from that checkpoint: its period, its increments, its
// stall starts and its drifts' room. A match that the stall check or the
// end rule vetoes leaves an older checkpoint, and the search, as they were;
// any jump drops every checkpoint but the one it jumped from, which moves
// to the capture.
//
// A capture is one pass over units, edges, in-flight elements and channels,
// in one order, taken at every anchor firing: when captures are taken
// depends only on the simulated run, not on how much work the engine spent
// getting there. A checkpoint keeps its capture's words as the full state.
// Every other capture is compared with the newest checkpoint word by word as
// it walks, noting the drifting words, and stops at the first other word
// that differs, keeping nothing, so one that differs costs only the words
// up to its first difference; then it is compared with each older
// checkpoint the same way. Only the captures that become the newest
// checkpoint — a phase's first and the limit-th since the last — walk in
// full, into a buffer the checkpoint then takes over. A capture equal to a
// checkpoint but for drifts is a repeat and jumps at once; the checkpoint
// moves there, taking the capture's drifting words (and the jump's k·δ).
//
// The compares with the older checkpoints have a budget: over the run they
// may walk at most one word per four units of engine work (its deliveries
// and unit visits). They pay where a phase repeats with a period longer
// than Brent's window, and are waste elsewhere: every capture of a run that
// never repeats, or ends before a period comes round, walks them all. The
// budget bounds that waste to a quarter of what the engine spends, and it
// decides only whether a capture is compared with the older checkpoints,
// never when one is taken. Without it the 16 kernels designs' captures walk
// 4.27 M words instead of 2.74 M and save 0.1 % of their 4.26 M visits.
//
// Each component run has its own detector, so its captures walk only the
// component. Runs that record a profile and the dense engine, which alone
// records traces, never fast-forward; CycleEngineNoFastPath turns it off (and with it the
// split into components) for the equivalence guard.

import (
	"math"
	"slices"
	"sync"

	"sara/internal/dfg"
)

// ffState is the full state at one capture: what a later capture is compared
// with word for word, and what the jump's deltas and stall starts are taken
// against.
type ffState struct {
	at    int64
	sig   []int64 // relative state, as walked by state
	since []int64 // per unit: blockedSince, -1 when no stall is pending
	fired []int64 // per unit: fired
	lin   []int64 // the linear counters, in linear's order
}

// ffDrift is a signature word that differs from the checkpoint's by delta:
// the occupancy of es, the i-th edge of the component, or counter level lvl
// of vs, the i-th unit. pos is the word's place in the signature, and room
// the periods it may be carried on for (driftRoom).
type ffDrift struct {
	pos         int
	delta, room int64
	es          *edgeState
	vs          *vuState
	lvl, i      int
}

// ffKeep is how many checkpoints the search keeps: the phase's newest,
// which Brent's search moves, and the ones it moved from.
const ffKeep = 4

// fastForward is one run's detector. Instances are pooled across runs with
// their buffers.
type fastForward struct {
	ev        *eventSim
	maxCycles int64

	anchor      *vuState // the unit whose firings trigger captures
	anchorFired int64    // its fired count at the last look
	remaining   int      // the run's live counter-driven units at the last look
	olderWords  int64    // state words the run's compares with older checkpoints walked

	// Brent's search: the phase's last nchk checkpoints, newest first, how
	// many captures have been compared with the newest, and how many it
	// waits for before moving on. chk[nchk:] are spare buffers.
	chk      [ffKeep]ffState
	nchk     int
	n, limit int
	// buf receives the words of a capture that may become the checkpoint.
	buf []int64
	// drift holds the drifting words of the last capture compared with a
	// checkpoint.
	drift []ffDrift

	skipped, jumps, drifts int64 // cycles advanced arithmetically, in how many jumps, how many with drift
	compared, words        int64 // captures compared with a checkpoint, state words walked by every capture
}

var ffPool = sync.Pool{New: func() any { return new(fastForward) }}

// ffCheck, when a test sets it, sees every comparison of a capture with a
// checkpoint c that may stop early: the drifts it noted, and its verdict.
var ffCheck func(ff *fastForward, c *ffState, drifts []ffDrift, same bool)

// newFastForward returns the detector for an event run, or nil when the run
// must not fast-forward.
func newFastForward(ev *eventSim, maxCycles int64) *fastForward {
	cs := ev.cs
	if cs.noFastPaths || cs.rec != nil {
		return nil
	}
	ff := ffPool.Get().(*fastForward)
	ff.ev, ff.maxCycles = ev, maxCycles
	ff.skipped, ff.jumps, ff.drifts, ff.compared, ff.words, ff.olderWords = 0, 0, 0, 0, 0, 0
	ff.pickAnchor()
	return ff
}

// release adds the skipped cycles, the jumps, the captures compared and the
// words walked to the run's and returns the detector to the pool.
func (ff *fastForward) release() {
	if ff == nil {
		return
	}
	cs := ff.ev.cs
	cs.skipped += ff.skipped
	cs.jumps += ff.jumps
	cs.drifts += ff.drifts
	cs.compared += ff.compared
	cs.walked += ff.words
	ff.ev, ff.anchor = nil, nil
	clear(ff.drift[:cap(ff.drift)])
	ffPool.Put(ff)
}

// pickAnchor chooses the component's live counter-driven unit with the
// fewest firings (lowest ID on ties) and restarts the search. Such a unit
// exists whenever the run has not completed, which is when afterCycle runs.
func (ff *fastForward) pickAnchor() {
	ff.anchor, ff.remaining = nil, ff.ev.remaining
	for _, vs := range ff.ev.c.vus {
		if !vs.isCounterDriven() || vs.done {
			continue
		}
		if ff.anchor == nil || vs.total < ff.anchor.total {
			ff.anchor = vs
		}
	}
	if ff.anchor != nil {
		ff.anchorFired = ff.anchor.fired
	}
	ff.nchk = 0
}

// afterCycle runs at the end of every event cycle that did not complete the
// run; it is two comparisons unless a unit completed or the anchor fired. A
// completion (the anchor's among them) starts a new phase: the search
// restarts there with a fresh anchor. An anchor firing takes a capture.
func (ff *fastForward) afterCycle() {
	switch {
	case ff.ev.remaining != ff.remaining:
		ff.pickAnchor()
	case ff.anchor.fired != ff.anchorFired:
		ff.anchorFired = ff.anchor.fired
		ff.sample()
	}
}

// sample captures the state and advances the search. A capture that cannot
// become the checkpoint is compared with the newest as it is walked, as far
// as its first differing word that is not a drift; it keeps nothing. The
// phase's first capture and the limit-th one since the newest checkpoint
// walk in full and become the newest, limit doubling. A capture equal to
// the newest but for drifts is a repeat whichever way it was walked: it
// jumps (unless vetoed) and the newest checkpoint moves there. One that is
// not is compared, newest first, with the older checkpoints, and a match
// jumps from there.
func (ff *fastForward) sample() {
	if ff.nchk > 0 {
		ff.compared++
	}
	switch {
	case ff.nchk == 0:
		ff.walkAll()
		ff.limit = 1
		ff.push()
	case ff.n+1 < ff.limit:
		if ff.compare(0) {
			ff.repeat(0)
			return
		}
		if !ff.older() {
			ff.n++
		}
	default:
		if ff.walkAll() {
			ff.repeat(0)
			return
		}
		if ff.older() {
			return
		}
		ff.push()
		ff.limit *= 2
	}
}

// compare walks the state against the j-th checkpoint as far as its first
// differing word that is not a drift, noting the drifts, and reports whether
// the two are equal but for drifts. The older checkpoints' compares count
// towards their budget.
func (ff *fastForward) compare(j int) bool {
	c := &ff.chk[j]
	w := sigWalk{ff: ff, chk: c, ref: c.sig, drifts: ff.drift[:0]}
	same := ff.state(&w) && w.n == len(w.ref)
	if j > 0 {
		ff.olderWords += int64(w.n)
	}
	ff.words += int64(w.n)
	ff.drift = w.drifts
	if ffCheck != nil {
		ffCheck(ff, c, w.drifts, same)
	}
	return same
}

// older compares the capture with the older checkpoints, newest first, and
// reports whether it jumped from the first that it equals but for drifts,
// while the run's older compares have walked at most a quarter of the
// engine work (see the file comment).
func (ff *fastForward) older() bool {
	if 4*ff.olderWords > ff.ev.work {
		return false
	}
	for j := 1; j < ff.nchk; j++ {
		if ff.compare(j) {
			return ff.repeat(j)
		}
	}
	return false
}

// walkAll walks the whole state into buf and reports whether it equals the
// newest checkpoint's but for drifts. Only a capture that may become the
// checkpoint walks this way.
func (ff *fastForward) walkAll() bool {
	// The newest checkpoint's length sizes buf, so that buffers taking turns
	// as checkpoints are not grown by doubling.
	words := slices.Grow(ff.buf[:0], len(ff.chk[0].sig))
	w := sigWalk{keep: true, words: words, ff: ff, drifts: ff.drift[:0]}
	if ff.nchk > 0 {
		w.chk, w.ref = &ff.chk[0], ff.chk[0].sig
	}
	ff.state(&w)
	ff.words += int64(w.n)
	ff.buf, ff.drift = w.words, w.drifts
	return ff.nchk > 0 && !w.differ && w.n == len(w.ref)
}

// push makes the capture whose words buf holds the newest checkpoint,
// dropping the oldest when all ffKeep are in use.
func (ff *fastForward) push() {
	spare := ff.chk[ffKeep-1]
	copy(ff.chk[1:], ff.chk[:ffKeep-1])
	ff.chk[0] = spare
	ff.buf, ff.chk[0].sig = spare.sig, ff.buf
	ff.nchk = min(ff.nchk+1, ffKeep)
	ff.record()
}

// repeat handles a capture equal to the j-th checkpoint but for ff.drift:
// it jumps unless a stall start or a unit's distance to its end vetoes, and
// reports whether it did. A jump leaves that checkpoint the only one, moved
// here. A veto moves the newest checkpoint here but leaves an older one, and
// the search, as they were.
func (ff *fastForward) repeat(j int) bool {
	c := &ff.chk[j]
	var k, p int64
	if ff.sameStalls(c) {
		k, p = ff.jumpCount(c)
	}
	if k == 0 && j > 0 {
		return false
	}
	if k > 0 {
		ff.jump(c, k, p)
		ff.chk[0], ff.chk[j] = ff.chk[j], ff.chk[0]
		ff.nchk = 1
	}
	// The jump leaves the relative state as it found it but for the
	// drifting words, which have now moved k+1 times from the checkpoint's.
	for _, d := range ff.drift {
		ff.chk[0].sig[d.pos] += (k + 1) * d.delta
	}
	ff.record()
	return k > 0
}

// record stores the rest of the newest checkpoint's full state, whose words
// it already holds, as of now.
func (ff *fastForward) record() {
	ff.n = 0
	ev, r := ff.ev, &ff.chk[0]
	n := len(ev.c.vus)
	r.since, r.fired = slices.Grow(r.since[:0], n), slices.Grow(r.fired[:0], n)
	for _, vs := range ev.c.vus {
		r.since = append(r.since, ev.blockedSince[vs.id])
		r.fired = append(r.fired, vs.fired)
	}
	// A component has one count of linear counters, which the oldest
	// checkpoint's holds unless it is this one.
	r.lin = slices.Grow(r.lin[:0], len(ff.chk[ff.nchk-1].lin))
	ff.linear(func(v int64) int64 {
		r.lin = append(r.lin, v)
		return v
	})
	r.at = ev.now
}

// sameStalls reports whether, for a capture whose words equal checkpoint
// r's, every pending stall began as long ago as at r (inside the period) or
// at the same cycle (parked throughout). The words say which units are
// parked or due.
func (ff *fastForward) sameStalls(r *ffState) bool {
	for i, s1 := range r.since {
		s2 := ff.ev.blockedSince[ff.ev.c.vus[i].id]
		if s2 != s1 && (s1 < 0 || s2 < 0 || s2-ff.ev.now != s1-r.at) {
			return false
		}
	}
	return true
}

// jumpCount returns how many periods the run may skip from here, and the
// period, measured from checkpoint r. See the file comment for each bound.
func (ff *fastForward) jumpCount(r *ffState) (k, p int64) {
	ev := ff.ev
	p = ev.now - r.at
	k = (ff.maxCycles - 1 - ev.now) / p
	for i, vs := range ev.c.vus {
		if !vs.isCounterDriven() || vs.done {
			continue
		}
		if d := vs.fired - r.fired[i]; d > 0 {
			k = min(k, (vs.total-vs.fired-1)/d)
		}
	}
	for _, d := range ff.drift {
		k = min(k, d.room)
	}
	return k, p
}

// driftRoom returns how many periods drift d may be carried on with each
// value it takes, in the observed period and in every skipped one, clear of
// the thresholds the engine compares it with (see the file comment). A
// drift without room is no drift: its word just differs. r is the
// checkpoint the drift is measured from.
func (ff *fastForward) driftRoom(r *ffState, d ffDrift) int64 {
	if es := d.es; es != nil {
		vus := ff.ev.cs.vus
		pops := es.pops - r.lin[d.i]
		occ := int64(es.occ) - d.delta // at the checkpoint
		space := int64(es.cap-es.infl) - occ
		return min(clearFor(occ-pops-batchBound(vus[es.e.Dst], es), d.delta),
			clearFor(space-d.delta-pops-batchBound(vus[es.e.Src], es), -d.delta))
	}
	vs := d.vs
	top := int64(vs.u.Counters[d.lvl].Trip) - 2
	if d.lvl == len(vs.idx)-1 && vs.batches() {
		least := int64(math.MaxInt64)
		for _, l := range [2][]*edgeState{vs.inFire, vs.outFire} {
			for _, es := range l {
				least = min(least, int64(es.cap))
			}
		}
		top = top + 1 - least
	}
	return clearFor(top-int64(vs.idx[d.lvl]), -d.delta)
}

// clearFor returns the most periods k for which a + m·d ≥ 0 at every m in
// [0, k]: a is a drifting word's least margin over its threshold in the
// observed period and d what the margin gains each period. A negative a
// allows none.
func clearFor(a, d int64) int64 {
	switch {
	case a < 0:
		return 0
	case d < 0:
		return a / -d
	}
	return math.MaxInt64
}

// batchBound is the most unit vs takes from or puts on edge es in one step:
// its innermost trip less one for a counter-driven unit that batches, the
// port's decimation for a VMU's input, 1 otherwise. While es holds at least
// that many elements (for its consumer) or free slots (for its producer),
// no decision of vs depends on how many.
func batchBound(vs *vuState, es *edgeState) int64 {
	switch {
	case vs == nil:
	case vs.kind == dfg.VMU:
		for _, pt := range vs.ports {
			if slices.Contains(pt.ins, es) {
				return int64(pt.decimate)
			}
		}
	case vs.isCounterDriven() && vs.batches() && len(vs.idx) > 0:
		return max(1, int64(vs.u.Counters[len(vs.idx)-1].Trip-1))
	}
	return 1
}

// jump advances the run by k periods of p cycles measured from checkpoint
// r.
func (ff *fastForward) jump(r *ffState, k, p int64) {
	ev, cs := ff.ev, ff.ev.cs
	shift := k * p
	i := 0
	ff.linear(func(v int64) int64 {
		v += k * (v - r.lin[i])
		i++
		return v
	})
	for _, d := range ff.drift {
		if d.es != nil {
			d.es.occ += int(k * d.delta)
		} else {
			d.vs.idx[d.lvl] += int(k * d.delta)
		}
	}
	// A busy channel's queue moves with the jump; where an idle one drained
	// no longer affects any request.
	for _, ch := range ev.c.chans {
		if cs.dram.Backlog(ch, ev.now+1) > 0 {
			cs.dram.Shift(ch, shift)
		}
	}
	ev.now += shift
	cs.now = ev.now
	ev.lastFire += shift
	ev.arrivals.clear()
	ev.timers.clear()
	for _, es := range ev.c.edges {
		if es.infl == 0 {
			continue
		}
		for j := 0; j < es.infl; j++ {
			es.ring[(es.head+j)&(len(es.ring)-1)] += shift
		}
		ev.arrivals.push(ev.now, es.ring[es.head], int32(es.e.ID))
	}
	for _, vs := range ev.c.vus {
		if vs.done {
			continue
		}
		id := vs.id
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
	ff.jumps++
	if len(ff.drift) > 0 {
		ff.drifts++
	}
}

// sigWalk receives the relative state word by word. With keep it keeps the
// words. With chk it compares them with that checkpoint's, ref, counting
// them in n: a word that drifts with room is noted in drifts, any other that
// differs sets differ and, without keep, stops the walk.
type sigWalk struct {
	keep   bool
	words  []int64
	ff     *fastForward
	chk    *ffState
	ref    []int64 // chk.sig
	n      int
	differ bool
	drifts []ffDrift
}

// put takes the next word, which must equal ref's, and reports whether the
// walk goes on.
func (w *sigWalk) put(x int64) bool {
	i := w.n
	w.n++
	if w.keep {
		w.words = append(w.words, x)
	}
	if i < len(w.ref) && w.ref[i] == x {
		return true
	}
	w.differ = true
	return w.keep
}

// occ takes the occupancy of es, the i-th edge, which may drift.
func (w *sigWalk) occ(es *edgeState, i int) bool {
	x := int64(es.occ)
	if w.n >= len(w.ref) || w.ref[w.n] == x {
		return w.put(x)
	}
	return w.drift(x, ffDrift{es: es, i: i})
}

// level takes counter level l of vs, the i-th unit. It may drift if it did
// not wrap in the period (its δ accounts for every firing) and no other
// level of the unit drifts.
func (w *sigWalk) level(vs *vuState, i, l int) bool {
	x := int64(vs.idx[l])
	if w.n >= len(w.ref) || w.ref[w.n] == x {
		return w.put(x)
	}
	d := x - w.ref[w.n]
	inner := int64(1)
	for _, c := range vs.u.Counters[l+1:] {
		inner *= int64(c.Trip)
	}
	if last := len(w.drifts) - 1; d <= 0 || d*inner != vs.fired-w.chk.fired[i] ||
		last >= 0 && w.drifts[last].vs == vs {
		return w.put(x)
	}
	return w.drift(x, ffDrift{vs: vs, lvl: l, i: i})
}

// drift takes x, which differs from ref's word in a way d describes: a
// drift if it has room, else a difference.
func (w *sigWalk) drift(x int64, d ffDrift) bool {
	d.pos, d.delta = w.n, x-w.ref[w.n]
	if d.room = w.ff.driftRoom(w.chk, d); d.room == 0 {
		return w.put(x)
	}
	w.drifts = append(w.drifts, d)
	w.n++
	if w.keep {
		w.words = append(w.words, x)
	}
	return true
}

// state walks the component's relative state at the end of the current
// cycle into w. It reports false when w stopped it at a differing word.
func (ff *fastForward) state(w *sigWalk) bool {
	ev := ff.ev
	now := ev.now
	for ui, vs := range ev.c.vus {
		id := vs.id
		// Done, parked, or due after a timer; a pending stall's cause, in
		// bits 2–4 (profile.Cause is below 8).
		var s int64
		switch {
		case vs.done:
		case ev.parked[id]:
			s = 1
		default:
			s = 2 | (ev.timerAt[id]-now)<<5
		}
		if ev.blockedSince[id] >= 0 {
			s |= int64(ev.blockedCause[id]) << 2
		}
		if !w.put(s) {
			return false
		}
		for l := 1; l < len(vs.idx); l++ {
			if !w.level(vs, ui, l) {
				return false
			}
		}
		if len(vs.ports) > 0 {
			if !w.put(int64(vs.rrIn)) {
				return false
			}
			for _, pt := range vs.ports {
				if !w.put(int64(pt.rrIn)) || !w.put(int64(pt.rrOut)) || !w.put(int64(pt.phase)) {
					return false
				}
			}
		}
	}
	for ei, es := range ev.c.edges {
		if !w.occ(es, ei) || !w.put(int64(es.infl)) {
			return false
		}
		for i := 0; i < es.infl; i++ {
			if !w.put(es.ring[(es.head+i)&(len(es.ring)-1)] - now) {
				return false
			}
		}
	}
	if !w.put(ev.lastFire - now) {
		return false
	}
	for _, ch := range ev.c.chans {
		if !w.put(ev.cs.dram.Backlog(ch, now+1)) {
			return false
		}
	}
	return true
}

// linear visits every counter that grows by a fixed amount each period, in
// one fixed order, replacing each with f's answer: the component's, and the
// run's totals (which only the component moves while it runs). Each edge's
// pops come first, so the i-th edge's sits at index i.
func (ff *fastForward) linear(f func(int64) int64) {
	cs := ff.ev.cs
	for _, es := range ff.ev.c.edges {
		es.pops = f(es.pops)
	}
	for _, vs := range ff.ev.c.vus {
		vs.fired = f(vs.fired)
		vs.stallIn, vs.stallOut, vs.stallToken = f(vs.stallIn), f(vs.stallOut), f(vs.stallToken)
		if len(vs.idx) > 0 {
			vs.idx[0] = int(f(int64(vs.idx[0])))
		}
		for _, pt := range vs.ports {
			pt.served = f(pt.served)
		}
	}
	cs.firedTotal, cs.busyCycles = f(cs.firedTotal), f(cs.busyCycles)
	for _, ch := range ff.ev.c.chans {
		b, r, s := cs.dram.Counters(ch)
		cs.dram.SetCounters(ch, f(b), f(r), f(s))
	}
}
