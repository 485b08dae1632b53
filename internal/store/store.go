package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sara/internal/partition"
)

// versionFile is the format marker at the root of a store directory: the
// record format version and the disk layout. A directory written by a
// different version or in another layout refuses to open with a clear error
// instead of silently serving undecodable (or worse, wrongly decoded)
// designs.
const versionFile = "VERSION"

// memCap bounds the in-memory byte cache; beyond it the oldest entries are
// dropped (they remain on disk when persistence is enabled).
const memCap = 1024

// StageStats counts one stage's (or artifact class's) cache traffic.
type StageStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Dir         string                `json:"dir,omitempty"`
	Stages      map[string]StageStats `json:"stages"`
	SolverHits  int64                 `json:"solver_hits"`
	SolverMiss  int64                 `json:"solver_misses"`
	MemEntries  int                   `json:"mem_entries"`
	DiskEntries int                   `json:"disk_entries"`
	DiskBytes   int64                 `json:"disk_bytes"`
}

// Store is a content-addressed design store: an in-memory memo table over an
// optional on-disk directory. Entries are namespaced by stage ("lower",
// "partition", ..., "final", "solver") and keyed by content address. On disk
// each Store appends its records to a segment log of its own (segment.go),
// one write(2) a record, and indexes every segment at Open: records another
// live process writes become visible at this process's next Open. All
// methods are safe for concurrent use.
//
// Store implements partition.SolverCache: solver-instance results are
// ordinary "solver" records, bounded in memory like every other stage and
// persisted across processes when a directory is configured.
type Store struct {
	mu  sync.Mutex
	dir string // "" = memory-only

	mem      map[string][]byte // "<stage>/<key>" -> encoded bytes
	memOrder []string          // FIFO eviction order

	// checks holds each stage's load check (SetLoadCheck).
	checks map[string]func([]byte) ([]byte, error)

	stages      map[string]*StageStats
	solverHits  int64
	solverMiss  int64
	diskEntries int
	diskBytes   int64

	// The disk tier: every segment (oldest first), the one this Store
	// appends to, the number its creation tries first, and the index of
	// the live records, stage -> key -> frame.
	segs []*segment
	own  *segment
	next int
	idx  map[string]map[string]loc
	// noWrite is set once a write fails or Close runs: Puts stay in memory.
	noWrite bool
	frame   []byte // scratch for the frame being appended
}

// Open returns a store backed by dir, creating it if needed. An empty dir
// yields a memory-only store. Opening a directory written by a different
// format version fails loudly; so does an unwritable directory — callers
// that want graceful degradation fall back to Open("").
func Open(dir string) (*Store, error) {
	s := &Store{
		mem:    map[string][]byte{},
		stages: map[string]*StageStats{},
		idx:    map[string]map[string]loc{},
		checks: map[string]func([]byte) ([]byte, error){
			SolverStage: func(b []byte) ([]byte, error) {
				_, err := read(b, nil, walkSolverResult)
				return b, err
			},
		},
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	vpath := filepath.Join(dir, versionFile)
	want := fmt.Sprintf("sara-store-format %d segments\n", FormatVersion)
	if b, err := os.ReadFile(vpath); err == nil {
		if string(b) != want {
			return nil, fmt.Errorf("store: %s holds %q, this build writes %q — "+
				"the on-disk design format changed; delete the directory (or point -store elsewhere) to rebuild it",
				vpath, strings.TrimSpace(string(b)), strings.TrimSpace(want))
		}
	} else if os.IsNotExist(err) {
		if err := os.WriteFile(vpath, []byte(want), 0o644); err != nil {
			return nil, fmt.Errorf("store: %s not writable: %w", dir, err)
		}
	} else {
		return nil, fmt.Errorf("store: read %s: %w", vpath, err)
	}
	segs, next, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", dir, err)
	}
	s.dir, s.segs, s.next = dir, segs, next
	for _, seg := range segs {
		s.scan(seg)
	}
	return s, nil
}

// Close closes the store's segment files and detaches its disk tier: from
// then on the store answers from memory alone, and Puts stay there. Closing
// a memory-only store, or closing twice, does nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, seg := range s.segs {
		if seg.f != nil {
			if cerr := seg.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	s.segs, s.own, s.noWrite = nil, nil, true
	s.idx, s.diskEntries, s.diskBytes = map[string]map[string]loc{}, 0, 0
	return err
}

func (s *Store) stat(stage string) *StageStats {
	st := s.stages[stage]
	if st == nil {
		st = &StageStats{}
		s.stages[stage] = st
	}
	return st
}

func memKey(stage, key string) string { return stage + "/" + key }

// SetLoadCheck makes check the gate of every entry of stage read from disk:
// Get remembers and returns the bytes check returns — a normalised copy, or
// the input — and an entry it refuses is tombstoned and answered as a miss,
// so the caller recomputes and Puts it afresh. Bytes Put in this process are
// the caller's and are not checked again. Call it before the store is shared.
func (s *Store) SetLoadCheck(stage string, check func([]byte) ([]byte, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checks[stage] = check
}

// Get returns the bytes stored under (stage, key) and whether they were
// found, updating the stage's hit/miss counters.
func (s *Store) Get(stage, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stat(stage)
	if b, ok := s.mem[memKey(stage, key)]; ok {
		st.Hits++
		st.BytesRead += int64(len(b))
		return b, true
	}
	if l, ok := s.idx[stage][key]; ok {
		if b, ok := s.load(stage, key, l); ok {
			s.remember(stage, key, b)
			st.Hits++
			st.BytesRead += int64(len(b))
			return b, true
		}
	}
	st.Misses++
	return nil, false
}

// Cached is Get confined to the memory tier: it never reads disk, and an
// absent entry counts nothing, so a caller that falls back to Get counts one
// miss, not two.
func (s *Store) Cached(stage, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.mem[memKey(stage, key)]
	if ok {
		st := s.stat(stage)
		st.Hits++
		st.BytesRead += int64(len(b))
	}
	return b, ok
}

// load reads the record of (stage, key) at l through the stage's load check
// (none accepts any bytes). A record that is not intact, or that the check
// refuses, is unindexed and tombstoned, so no later Open reads it either.
// Caller holds s.mu.
func (s *Store) load(stage, key string, l loc) ([]byte, bool) {
	if b, ok := s.read(stage, key, l); ok {
		check := s.checks[stage]
		if check == nil {
			return b, true
		}
		if nb, err := check(b); err == nil {
			return nb, true
		}
	}
	s.unindex(stage, key)
	s.write(tombMagic, stage, key, nil)
	return nil, false
}

// Probe reports whether (stage, key) exists, recording a hit or miss in the
// stage's counters without transferring bytes. The incremental driver probes
// the stages shallower than its restore point so per-stage counters reflect
// the full logically reused prefix.
func (s *Store) Probe(stage, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stat(stage)
	if _, ok := s.mem[memKey(stage, key)]; ok {
		st.Hits++
		return true
	}
	if _, ok := s.idx[stage][key]; ok {
		st.Hits++
		return true
	}
	st.Misses++
	return false
}

// Put stores bytes under (stage, key), in memory and — when a directory is
// configured — on disk, appended to the store's segment in one write. A
// failed write degrades the store silently to memory-only: it is a cache,
// never a source of truth.
func (s *Store) Put(stage, key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := memKey(stage, key)
	old, existed := s.mem[mk]
	// Content-addressed: same key, same bytes, nothing to rewrite. A caller
	// that Puts different bytes under a resident key read the old ones back
	// (a torn or foreign record), could not use them and recomputed: the new
	// bytes replace the record too, or every later process trips on it again.
	replace := existed && !bytes.Equal(old, data)
	s.remember(stage, key, data)
	st := s.stat(stage)
	if !existed || replace {
		st.BytesWritten += int64(len(data))
	}
	if s.dir == "" {
		return
	}
	if _, onDisk := s.idx[stage][key]; onDisk && !replace {
		return
	}
	if l, ok := s.write(recordMagic, stage, key, data); ok {
		s.index(stage, key, l)
	}
}

// remember inserts into the bounded in-memory cache. Caller holds s.mu.
func (s *Store) remember(stage, key string, data []byte) {
	mk := memKey(stage, key)
	if _, ok := s.mem[mk]; !ok {
		s.memOrder = append(s.memOrder, mk)
		for len(s.memOrder) > memCap {
			evict := s.memOrder[0]
			s.memOrder = s.memOrder[1:]
			delete(s.mem, evict)
		}
	}
	s.mem[mk] = data
}

// ListKeys returns every key stored under stage (memory and disk), sorted.
// Used by sarad to warm its LRU from persisted final artifacts at startup.
func (s *Store) ListKeys(stage string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	prefix := stage + "/"
	for mk := range s.mem {
		if strings.HasPrefix(mk, prefix) {
			seen[strings.TrimPrefix(mk, prefix)] = true
		}
	}
	for k := range s.idx[stage] {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats returns a copy of all counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Dir:         s.dir,
		Stages:      make(map[string]StageStats, len(s.stages)),
		SolverHits:  s.solverHits,
		SolverMiss:  s.solverMiss,
		MemEntries:  len(s.mem),
		DiskEntries: s.diskEntries,
		DiskBytes:   s.diskBytes,
	}
	for name, st := range s.stages {
		out.Stages[name] = *st
	}
	return out
}

// --- partition.SolverCache ---

// SolverStage is the store namespace for memoized solver-instance results.
const SolverStage = "solver"

// LookupResult returns a memoized solver result for a partition-instance
// content key: a Get of its solver record, decoded into a fresh Result.
// Results round-trip through the disk tier, so a restarted process still
// skips re-solving instances it has seen; a record on disk that does not
// decode is tombstoned by the stage's load check and answered as a miss, so
// the next StoreResult writes it afresh.
func (s *Store) LookupResult(key string) (*partition.Result, bool) {
	var r *partition.Result
	b, ok := s.Get(SolverStage, key)
	if ok {
		var err error
		r, err = read(b, nil, walkSolverResult)
		ok = err == nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.solverMiss++
		return nil, false
	}
	s.solverHits++
	return r, true
}

// StoreResult memoizes a solver result under its instance content key.
func (s *Store) StoreResult(key string, r *partition.Result) {
	s.Put(SolverStage, key, write(r, walkSolverResult))
}

func walkSolverResult(c *codec, r *partition.Result) {
	c.header("", "solver result")
	list(c, &r.Assign, num[int])
	num(c, &r.NumParts)
	num(c, &r.RetimeUnits)
	c.f64(&r.Cost)
	c.str(&r.Algo)
	num(c, &r.MIPNodes)
}
