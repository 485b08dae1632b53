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
// capacity; concurrent misses on one key share one run through the server's
// flight table (see flights.design), which publishes here.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element

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
	}
}

// Get returns the design resident under key, moved to the front, or nil —
// an absent key and one still compiling alike. The caller counts the ask.
func (c *Cache) Get(key string) *design {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).d
}

// Seed inserts a design — one the flight table resolved below memory, or a
// persisted artifact replayed at startup — and evicts beyond capacity,
// without touching the hit/miss counters.
func (c *Cache) Seed(key string, d *design) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// count records an ask for a design: a hit when it found the design resident
// or joined a run another ask had started, a miss when it started one.
func (c *Cache) count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
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
