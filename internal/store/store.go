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

// versionFile is the format marker at the root of a store directory. A
// directory written by a different format version refuses to open with a
// clear error instead of silently serving undecodable (or worse, wrongly
// decoded) designs.
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
// "partition", ..., "final", "solver"), keyed by content address, and the
// disk layout is one file per entry under <dir>/<stage>/<key>.bin, written
// atomically (tmp + rename). All methods are safe for concurrent use.
//
// Store implements partition.SolverCache: solver-instance results persist
// across processes when a directory is configured.
type Store struct {
	mu  sync.Mutex
	dir string // "" = memory-only

	mem      map[string][]byte // "<stage>/<key>" -> encoded bytes
	memOrder []string          // FIFO eviction order

	solver map[string]*partition.Result

	// checks holds each stage's load check (SetLoadCheck).
	checks map[string]func([]byte) ([]byte, error)

	stages      map[string]*StageStats
	solverHits  int64
	solverMiss  int64
	diskEntries int
	diskBytes   int64
}

// Open returns a store backed by dir, creating it if needed. An empty dir
// yields a memory-only store. Opening a directory written by a different
// format version fails loudly; so does an unwritable directory — callers
// that want graceful degradation fall back to Open("").
func Open(dir string) (*Store, error) {
	s := &Store{
		mem:    map[string][]byte{},
		solver: map[string]*partition.Result{},
		stages: map[string]*StageStats{},
		checks: map[string]func([]byte) ([]byte, error){},
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	vpath := filepath.Join(dir, versionFile)
	want := fmt.Sprintf("sara-store-format %d\n", FormatVersion)
	if b, err := os.ReadFile(vpath); err == nil {
		if string(b) != want {
			return nil, fmt.Errorf("store: %s holds %q, this build writes format %d — "+
				"the on-disk design format changed; delete the directory (or point -store elsewhere) to rebuild it",
				vpath, strings.TrimSpace(string(b)), FormatVersion)
		}
	} else if os.IsNotExist(err) {
		if err := os.WriteFile(vpath, []byte(want), 0o644); err != nil {
			return nil, fmt.Errorf("store: %s not writable: %w", dir, err)
		}
	} else {
		return nil, fmt.Errorf("store: read %s: %w", vpath, err)
	}
	s.dir = dir
	s.scanDisk()
	return s, nil
}

// scanDisk counts existing entries for the stats gauges.
func (s *Store) scanDisk() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".bin") {
				continue
			}
			s.diskEntries++
			if info, err := f.Info(); err == nil {
				s.diskBytes += info.Size()
			}
		}
	}
}

// Dir returns the backing directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

func (s *Store) stat(stage string) *StageStats {
	st := s.stages[stage]
	if st == nil {
		st = &StageStats{}
		s.stages[stage] = st
	}
	return st
}

func memKey(stage, key string) string { return stage + "/" + key }

func (s *Store) diskPath(stage, key string) string {
	return filepath.Join(s.dir, stage, key+".bin")
}

// SetLoadCheck makes check the gate of every entry of stage read from disk:
// Get remembers and returns the bytes check returns — a normalised copy, or
// the input — and an entry it refuses is deleted and answered as a miss, so
// the caller recomputes and Puts it afresh. Bytes Put in this process are the
// caller's and are not checked again. Call it before the store is shared.
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
	if s.dir != "" {
		if b, ok := s.load(stage, key, s.checks[stage]); ok {
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

// load reads (stage, key) from disk through check (nil accepts any bytes).
// A file the check refuses is removed. Caller holds s.mu.
func (s *Store) load(stage, key string, check func([]byte) ([]byte, error)) ([]byte, bool) {
	path := s.diskPath(stage, key)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if check == nil {
		return b, true
	}
	if nb, err := check(b); err == nil {
		return nb, true
	}
	if os.Remove(path) == nil {
		s.diskEntries--
		s.diskBytes -= int64(len(b))
	}
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
	if s.dir != "" {
		if _, err := os.Stat(s.diskPath(stage, key)); err == nil {
			st.Hits++
			return true
		}
	}
	st.Misses++
	return false
}

// Put stores bytes under (stage, key), in memory and — when a directory is
// configured — on disk via an atomic tmp+rename. Disk write failures degrade
// silently to memory-only for that entry: the store is a cache, never a
// source of truth.
func (s *Store) Put(stage, key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := memKey(stage, key)
	old, existed := s.mem[mk]
	// Content-addressed: same key, same bytes, nothing to rewrite. A caller
	// that Puts different bytes under a resident key read the old ones back
	// (a torn or foreign file), could not use them and recomputed: the new
	// bytes replace the file too, or every later process trips on it again.
	replace := existed && !bytes.Equal(old, data)
	s.remember(stage, key, data)
	st := s.stat(stage)
	if !existed || replace {
		st.BytesWritten += int64(len(data))
	}
	if s.dir == "" {
		return
	}
	path := s.diskPath(stage, key)
	if info, err := os.Stat(path); err == nil {
		if !replace {
			return
		}
		s.diskEntries--
		s.diskBytes -= info.Size()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return
	}
	s.diskEntries++
	s.diskBytes += int64(len(data))
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
	if s.dir != "" {
		if files, err := os.ReadDir(filepath.Join(s.dir, stage)); err == nil {
			for _, f := range files {
				if n := f.Name(); strings.HasSuffix(n, ".bin") && !f.IsDir() {
					seen[strings.TrimSuffix(n, ".bin")] = true
				}
			}
		}
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
// content key. Results round-trip through the disk tier, so a restarted
// process still skips re-solving instances it has seen; a record on disk that
// does not decode is deleted and answered as a miss, so the next StoreResult
// writes it afresh.
func (s *Store) LookupResult(key string) (*partition.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.solver[key]
	if !ok && s.dir != "" {
		_, ok = s.load(SolverStage, key, func(b []byte) (_ []byte, err error) {
			r, err = read(b, nil, walkSolverResult)
			return b, err
		})
		if ok {
			s.solver[key] = r
		}
	}
	if !ok {
		s.solverMiss++
		return nil, false
	}
	s.solverHits++
	return r.Clone(), true
}

// StoreResult memoizes a solver result under its instance content key.
func (s *Store) StoreResult(key string, r *partition.Result) {
	cp := r.Clone()
	s.mu.Lock()
	s.solver[key] = cp
	s.mu.Unlock()
	if s.dir != "" {
		s.Put(SolverStage, key, write(cp, walkSolverResult))
		// Put counted this under the "solver" stage byte counters, which is
		// where solver disk traffic belongs; hit/miss stay on the dedicated
		// solver counters above.
	}
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
