package sim

import "math/bits"

// calSlots is the calendar wheel's span in cycles (a power of two). 1024
// covers every on-chip latency — (hops+1)·NetHopLatencyCycles + Stages — and
// the unloaded DRAM round trip, so only responses queued behind a busy DRAM
// channel (or an exotic arch spec) take the overflow heap.
const calSlots = 1024

// calEvent is an overflow-heap entry.
type calEvent struct {
	at int64
	id int32
}

// calQueue is the event engine's one event queue: a calendar of (cycle, id)
// events with O(1) push, pop and next-cycle lookup. Events less than calSlots
// cycles ahead chain into the per-cycle bucket at&(calSlots-1) through an
// intrusive list over ids — each id is queued at most once, so pushing never
// allocates — and a bitmap over the buckets finds the next non-empty cycle.
// Events further out wait on a small min-heap and are popped from it in place
// when due; nothing migrates.
//
// The caller's clock must visit every queued cycle: it may only advance to
// nextAt's answer (or to an earlier cycle). Then every wheel entry lies in
// [now, now+calSlots) and two live entries can never alias a bucket. Events
// of one cycle pop in unspecified order.
type calQueue struct {
	head [calSlots]int32       // first id of each cycle's bucket, -1 when empty
	used [calSlots / 64]uint64 // bit s set iff head[s] >= 0
	next []int32               // bucket links, by id
	far  []calEvent            // min-heap on at: events pushed >= calSlots ahead
}

// init sizes the queue for ids in [0, ids).
func (q *calQueue) init(ids int) {
	q.clear()
	q.next = make([]int32, ids)
}

// clear empties the queue, keeping its storage.
func (q *calQueue) clear() {
	for s := range q.head {
		q.head[s] = -1
	}
	q.used = [calSlots / 64]uint64{}
	q.far = q.far[:0]
}

// push queues id for cycle at >= now. id must not be queued already.
func (q *calQueue) push(now, at int64, id int32) {
	if at-now >= calSlots {
		q.pushFar(calEvent{at: at, id: id})
		return
	}
	s := at & (calSlots - 1)
	q.next[id] = q.head[s]
	q.head[s] = id
	q.used[s>>6] |= 1 << uint(s&63)
}

// popDue removes and returns one event of cycle now, or -1 when none is left.
func (q *calQueue) popDue(now int64) int32 {
	s := now & (calSlots - 1)
	if id := q.head[s]; id >= 0 {
		if q.head[s] = q.next[id]; q.head[s] < 0 {
			q.used[s>>6] &^= 1 << uint(s&63)
		}
		return id
	}
	if len(q.far) > 0 && q.far[0].at <= now {
		return q.popFar()
	}
	return -1
}

// nextAt returns the earliest queued cycle >= now, or -1 when the queue is
// empty: one lap of the bucket bitmap from now's slot (usually one word, 17
// at most — the start word is read twice, first for the slots from now on,
// last for the slots behind it), then the overflow heap's top.
func (q *calQueue) nextAt(now int64) int64 {
	const words = calSlots / 64
	next := int64(-1)
	s := uint(now) & (calSlots - 1)
	behind := uint64(1)<<(s&63) - 1 // the start word's slots behind now
	for i := uint(0); i <= words; i++ {
		w := (s>>6 + i) % words
		m := q.used[w]
		switch i {
		case 0:
			m &^= behind
		case words:
			m &= behind
		}
		if m != 0 {
			slot := w<<6 + uint(bits.TrailingZeros64(m))
			next = now + int64((slot-s)&(calSlots-1))
			break
		}
	}
	if len(q.far) > 0 && (next < 0 || q.far[0].at < next) {
		next = q.far[0].at
	}
	return next
}

// The overflow min-heap, hand-rolled to stay free of interface dispatch.

func (q *calQueue) pushFar(e calEvent) {
	h := append(q.far, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	q.far = h
}

func (q *calQueue) popFar() int32 {
	h := q.far
	top := h[0].id
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.far = h
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
