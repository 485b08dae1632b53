package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	var fl flights
	var compiles int64
	const n = 16
	results := make([]*design, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := fl.design(c, "k", func() (resolved, error) {
				atomic.AddInt64(&compiles, 1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return resolved{d: &design{}}, nil
			})
			if err != nil {
				t.Errorf("design: %v", err)
			}
			results[i] = got.d
		}(i)
	}
	wg.Wait()
	if compiles != 1 {
		t.Fatalf("%d concurrent identical requests compiled %d times, want 1", n, compiles)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters did not share the single-flight result")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, n-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	var fl flights
	compile := func() (resolved, error) { return resolved{d: &design{}}, nil }
	mustMiss := func(key string) {
		t.Helper()
		if _, started, _ := fl.design(c, key, compile); !started {
			t.Fatalf("key %q: want miss, got hit", key)
		}
	}
	mustHit := func(key string) {
		t.Helper()
		if _, started, _ := fl.design(c, key, compile); started {
			t.Fatalf("key %q: want hit, got miss", key)
		}
	}
	mustMiss("a")
	mustMiss("b")
	mustHit("a")  // a is now most recently used
	mustMiss("c") // evicts b, the LRU entry
	mustHit("a")
	mustMiss("b")
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 evictions and 2 entries", st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(2)
	var fl flights
	boom := errors.New("boom")
	if _, _, err := fl.design(c, "k", func() (resolved, error) { return resolved{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	r, started, err := fl.design(c, "k", func() (resolved, error) { return resolved{d: &design{}}, nil })
	if compiled, hit := r.d, !started; err != nil || hit || compiled == nil {
		t.Fatalf("retry after error: compiled=%v hit=%v err=%v, want fresh successful compile", compiled, hit, err)
	}
}
