package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the sort-based reference the calendar queue is held to.
type refQueue []calEvent

func (r refQueue) nextAt() int64 {
	next := int64(-1)
	for _, e := range r {
		if next < 0 || e.at < next {
			next = e.at
		}
	}
	return next
}

// popDue removes every event of cycle now and returns their ids, sorted.
func (r *refQueue) popDue(now int64) []int32 {
	var due []int32
	kept := (*r)[:0]
	for _, e := range *r {
		if e.at == now {
			due = append(due, e.id)
		} else {
			kept = append(kept, e)
		}
	}
	*r = kept
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// TestCalQueueMatchesReference drives the calendar queue and a sort-based
// reference with one seeded stream of pushes at offsets chosen to sit on
// every boundary of the wheel, advancing the clock only through nextAt. Per
// visited cycle the popped id multisets must be equal; nextAt must agree at
// every step; the drained queue must answer -1.
func TestCalQueueMatchesReference(t *testing.T) {
	offsets := []int64{0, 1, 2, calSlots - 1, calSlots, calSlots + 1, 10 * calSlots, 1_000_000}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ids = 96
		var q calQueue
		q.init(ids)
		var ref refQueue
		free := make([]int32, ids) // ids not queued: each may be queued once at a time
		for i := range free {
			free[i] = int32(i)
		}
		far := map[int32]bool{} // ids queued a wheel turn or more ahead: the overflow heap's
		push := func(now int64) {
			i := rng.Intn(len(free))
			id := free[i]
			free[i] = free[len(free)-1]
			free = free[:len(free)-1]
			at := now + offsets[rng.Intn(len(offsets))]
			far[id] = at-now >= calSlots
			q.push(now, at, id)
			ref = append(ref, calEvent{at: at, id: id})
		}

		if got := q.nextAt(0); got != -1 {
			t.Fatalf("seed %d: empty queue: nextAt = %d, want -1", seed, got)
		}
		now, visited, farDue := int64(0), 0, 0
		for step := 0; ; step++ {
			// Keep feeding for a while, then let the queue drain.
			if step < 4000 {
				for n := rng.Intn(4); n > 0 && len(free) > 0; n-- {
					push(now)
				}
			}
			want := ref.popDue(now)
			var got []int32
			for id := q.popDue(now); id >= 0; id = q.popDue(now) {
				got = append(got, id)
				free = append(free, id)
				if far[id] {
					farDue++ // came due on the heap: nothing migrates into the wheel
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("seed %d cycle %d: popped %v, want %v", seed, now, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d cycle %d: popped %v, want %v", seed, now, got, want)
				}
			}
			visited++
			next := q.nextAt(now)
			if wantNext := ref.nextAt(); next != wantNext {
				t.Fatalf("seed %d cycle %d: nextAt = %d, want %d", seed, now, next, wantNext)
			}
			if next < 0 {
				if step < 4000 {
					continue // empty for now; the next step pushes again
				}
				break
			}
			now = next
		}
		if len(ref) != 0 || len(q.far) != 0 {
			t.Fatalf("seed %d: %d reference / %d far events left after drain", seed, len(ref), len(q.far))
		}
		if turns := now / calSlots; turns < 8 {
			t.Errorf("seed %d: clock reached %d, only %d wheel turns", seed, now, turns)
		}
		if farDue < 100 {
			t.Errorf("seed %d: only %d overflow events came due", seed, farDue)
		}
		t.Logf("seed %d: %d cycles visited, clock %d, %d overflow events", seed, visited, now, farDue)
	}
}
