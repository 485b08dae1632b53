package server

import (
	"container/list"
	"sync"

	"sara/internal/core"
)

// Cache is a content-addressed compile cache: canonicalized request hash →
// compiled design. The SARA flow is a deterministic pure function of
// (program, arch spec, options), so identical requests can safely share one
// compilation. Entries are evicted least-recently-used beyond a fixed
// capacity, and concurrent misses on the same key are deduplicated
// single-flight style: one caller compiles, the rest wait for its result.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	inflight map[string]*flight

	hits, misses, evictions int64
}

// design is one LRU entry: a compiled design and the compile half of every
// RunResponse that names it — its fields, and their encoded bytes — made
// once, when the design enters the cache.
type design struct {
	c    *core.Compiled
	resp RunResponse // Program, Arch, CacheKey, PhaseMS, MIPNodesExplored, StageCache, Resources and wire
}

// newDesign builds the LRU entry of c, compiled under key.
func newDesign(key string, c *core.Compiled) *design {
	d := &design{c: c, resp: RunResponse{
		Program:          c.Prog.Name,
		Arch:             c.Spec.Name,
		CacheKey:         key,
		PhaseMS:          make(map[string]float64, len(c.PhaseTimes)),
		MIPNodesExplored: c.MIPNodes(),
		StageCache:       c.StageHits,
		Resources:        resourcesJSON(c.Resources()),
	}}
	for phase, t := range c.PhaseTimes {
		d.resp.PhaseMS[phase] = msOf(t)
	}
	// A compile half that does not encode (it always does) is left to each
	// response's writer, which answers its error.
	d.resp.wire, _ = encodeCompileHalf(&d.resp)
	return d
}

type cacheEntry struct {
	key string
	d   *design
}

// flight is one in-progress compilation; waiters block on done.
type flight struct {
	done chan struct{}
	d    *design
	err  error
}

// NewCache returns a cache holding up to capacity compiled designs
// (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// GetOrCompile returns the design cached under key, compiling it with
// compile on a miss. The boolean reports a cache hit (including hitting an
// in-flight compilation started by another caller). Failed compilations are
// not cached: every waiter of the failing flight receives the error, but the
// next request retries.
func (c *Cache) GetOrCompile(key string, compile func() (*design, error)) (*design, bool, error) {
	c.mu.Lock()
	if d := c.resident(key); d != nil {
		c.mu.Unlock()
		return d, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.d, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.d, f.err = compile()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insert(key, f.d)
	}
	c.mu.Unlock()
	close(f.done)
	return f.d, false, f.err
}

// Get returns the design resident under key, counted as a hit, or nil — an
// absent key and one still compiling alike — without counting a miss.
func (c *Cache) Get(key string) *design {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident(key)
}

// resident returns the design cached under key, moved to the front and
// counted as a hit, or nil. Caller holds mu.
func (c *Cache) resident(key string) *design {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).d
}

// Seed inserts a pre-built design (a persisted artifact replayed at
// startup) without touching the hit/miss counters.
func (c *Cache) Seed(key string, d *design) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, d)
}

// insert adds an entry and evicts beyond capacity. Caller holds mu.
func (c *Cache) insert(key string, d *design) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, d: d})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries, Capacity       int
	Hits, Misses, Evictions int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
