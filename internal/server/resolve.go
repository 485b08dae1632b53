package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/sim"
	"sara/internal/store"
)

// layer names where a resolved design came from.
type layer uint8

const (
	fromMemory layer = iota // the LRU, or a run another ask had started
	fromStore               // the store's final tier
	fromOwner               // the ring owner, over /v1/artifact
	computed                // compiled for this ask
)

// resolved is what resolve answers: the design, where it came from and this
// request's time for it, and, when asked for, its result.
type resolved struct {
	d           *design
	design      layer
	owner       string        // the peer a fromOwner design came from
	compileWall time.Duration // the owner's simulation excluded
	stats       *store.Stats  // the store as the design half left it
	simulated
}

// simulated is the result half of a resolve: the checked record (see
// checkSimRecord), whether an engine ran for this request — here or on the
// owner — and what it simulated, and this request's simulation time (the
// owner's, when it ran for it).
type simulated struct {
	record  []byte
	ran     bool
	cycles  int64
	simWall time.Duration
}

// want is what a resolve fetches and how far it may go.
type want struct {
	result bool // the result as well as the design
	// proxy lets a design miss go to the ring owner: false only on the owner
	// side of /v1/artifact, so asks never travel on.
	proxy    bool
	resident *design // the design the handler already found in the LRU
	// wait bounds the wait for the result: past it resolve answers
	// errSimBudget and the run carries on into the store. Nil waits; the
	// design wait is never bounded.
	wait <-chan time.Time
}

// errSimBudget: the caller stopped waiting before the shared run finished;
// the run carries on into the memo.
var errSimBudget = errors.New("simulation still running past the wait budget")

// resolve answers req's design, compiled under key, and with w.result its
// result record under memoKeyFor(key). Both go through the same layers —
// memory (the LRU; the store's memory tier), the store's disk tier, the ring
// owner, compute — and one flight per key. The proxy hop runs inside the
// design's flight, so concurrent identical asks on this node make one proxy
// call, the owner's flights collapse calls from different nodes, and an owner
// asked for the result sends its record with the artifact. An error past the
// design half still answers the design.
func (s *Server) resolve(ctx context.Context, req *RunRequest, spec *arch.Spec, key string, w want) (resolved, error) {
	t0 := time.Now()
	r := resolved{d: w.resident}
	if r.d == nil {
		var err error
		if r, _, err = s.flights.design(s.cache, key, func() (resolved, error) {
			return s.findDesign(ctx, req, spec, key, w)
		}); err != nil {
			return resolved{}, err
		}
	}
	r.compileWall = max(0, time.Since(t0)-r.simWall)
	st := s.store.Stats()
	r.stats = &st
	if !w.result || r.record != nil {
		return r, nil
	}
	if err := jobAbandoned(ctx); err != nil {
		return r, err
	}

	t1 := time.Now()
	mk := memoKeyFor(key)
	c := r.d.c
	res, started, err := s.flights.do(mk, func() (resolved, bool) {
		rec, ok := s.store.Cached(store.SimStage, mk)
		return resolved{simulated: simulated{record: rec}}, ok
	}, func() (resolved, error) {
		sm, err := s.simulateMemo(c, mk)
		return resolved{simulated: sm}, err
	}, w.wait)
	switch {
	case !started:
		s.metrics.Add("sarad_sim_memo_hits_total", 1)
		res.ran = false
	case errors.Is(err, errSimBudget):
		res.ran = true // the run this ask started is still simulating
	}
	r.simulated = res.simulated
	r.simWall = time.Since(t1)
	return r, err
}

// findDesign is the design's run below memory: the store's final tier, then
// the ring owner — when w allows and another node owns key — then a compile.
// Any proxy failure (dead peer, timeout after one retry, saturation, an
// artifact that does not decode) falls back to compiling here, standalone
// sarad behaviour.
func (s *Server) findDesign(ctx context.Context, req *RunRequest, spec *arch.Spec, key string, w want) (resolved, error) {
	if d := s.storedDesign(key); d != nil {
		s.metrics.Add("sarad_store_final_serves_total", 1)
		return resolved{d: d, design: fromStore}, nil
	}
	if w.proxy {
		if owner, local := s.cluster.route(key); !local {
			if r, ok := s.fromOwner(ctx, owner, key, req, w.result); ok {
				return r, nil
			}
			s.metrics.Add("sarad_proxy_fallback_local_total", 1)
		}
	}
	s.metrics.Add("sarad_compiles_total", 1)
	prog, err := buildProgram(req)
	if err != nil {
		return resolved{}, err
	}
	cfg := req.Options.config(spec)
	cfg.Memo = s.store
	c, err := core.Compile(prog, cfg)
	if err != nil {
		return resolved{}, err
	}
	// Persist the finished design under the request's content address so a
	// restarted server can warm its LRU without recompiling.
	s.store.Put(store.FinalStage, key, store.EncodeArtifact(c.Artifact()))
	s.metrics.Observe("sarad_compile_seconds", c.CompileTime().Seconds())
	for phase, d := range c.PhaseTimes {
		s.metrics.Observe("sarad_compile_phase_seconds_"+phase, d.Seconds())
	}
	s.metrics.Add("sarad_mip_nodes_explored_total", int64(c.MIPNodes()))
	return resolved{d: newDesign(key, c), design: computed}, nil
}

// storedDesign is the design persisted under key in the store's final tier
// (compiled or proxied here, in this life or a past one), or nil when there
// is none or its bytes do not decode.
func (s *Server) storedDesign(key string) *design {
	data, ok := s.store.Get(store.FinalStage, key)
	if !ok {
		return nil
	}
	a, err := store.DecodeArtifact(data)
	if err != nil {
		return nil
	}
	return newDesign(key, core.FromArtifact(a))
}

// fromOwner asks owner for key's design — with askResult, its result record
// too — and takes the answer in. The artifact is persisted in this node's
// final tier, so repeats are served here after the owner dies, and the design
// carries the owner's stage flags, so stage_cache stays accurate through the
// proxy; the record goes through acceptSimRecord. An artifact that does not
// decode is refused whole: ok false sends the caller to compile here.
func (s *Server) fromOwner(ctx context.Context, owner, key string, req *RunRequest, askResult bool) (r resolved, ok bool) {
	env, err := s.cluster.fetchArtifact(ctx, owner, key, req, askResult)
	if err != nil {
		return r, false
	}
	a, err := store.DecodeArtifact(env.Artifact)
	if err != nil {
		s.metrics.Add("sarad_proxy_decode_errors_total", 1)
		return r, false
	}
	s.store.Put(store.FinalStage, key, env.Artifact)
	c := core.FromArtifact(a)
	c.StageHits = env.StageCache
	return resolved{d: newDesign(key, c), design: fromOwner, owner: owner, simulated: s.acceptSimRecord(env, key)}, true
}

// acceptSimRecord is the result memo's peer door: it stores the owner's
// record in this node's sim tier and answers it as the result half — only
// when it is the record this node would have stored itself: the memo key
// recomputed here (compile key, record format, sim.Version, cycle cap)
// equals the owner's, and the bytes pass checkSimRecord and decode as a
// sim.ResultJSON (decodeSimRecord). What is stored and spliced from then on
// is checkSimRecord's form of the bytes. Anything else is dropped and
// counted, and the request simulates here as if the owner had sent no
// record.
func (s *Server) acceptSimRecord(env *artifactEnvelope, key string) simulated {
	if env.SimKey == "" {
		return simulated{}
	}
	memoKey := memoKeyFor(key)
	record, err := checkSimRecord(env.SimRecord)
	var result *sim.ResultJSON
	if err == nil {
		result, err = decodeSimRecord(record)
	}
	if env.SimKey != memoKey || err != nil {
		s.metrics.Add("sarad_proxy_sim_records_rejected_total", 1)
		return simulated{}
	}
	s.store.Put(store.SimStage, memoKey, record)
	s.metrics.Add("sarad_proxy_sim_records_total", 1)
	return simulated{record: record, ran: env.SimRan, cycles: result.Cycles, simWall: env.SimNS}
}

// simulateMemo is the result's run below memory: the store's disk tier, else
// one event-engine run whose record it Puts. A disk record that fails the
// sim stage's load check reads as a miss and is simulated afresh and
// overwritten; errors are never stored (a deadlocking design deadlocks every
// time). It counts itself in the memo's hit and miss counters, on the node it
// ran on.
func (s *Server) simulateMemo(c *core.Compiled, memoKey string) (simulated, error) {
	if rec, ok := s.store.Get(store.SimStage, memoKey); ok {
		s.metrics.Add("sarad_sim_memo_hits_total", 1)
		return simulated{record: rec}, nil
	}
	s.metrics.Add("sarad_sim_memo_misses_total", 1)
	if s.simGate != nil {
		s.simGate()
	}
	sm, _, err := s.runEngine(c, false, false)
	if err != nil {
		return simulated{}, err
	}
	s.store.Put(store.SimStage, memoKey, sm.record)
	return sm, nil
}

// flight is one run in progress; asks for its key that arrive meanwhile wait
// on done and share its answer.
type flight struct {
	done chan struct{}
	r    resolved
	err  error
}

// flights is the server's one single-flight table, keyed by the store key of
// the record being resolved: a design's compile key or its result's memo
// key. The zero value is ready to use.
type flights struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do answers key from memory when memory holds it; otherwise it waits for
// the one run in flight for key, starting run in its own goroutine when no
// ask has (started). memory, which must not block, is consulted under the
// table's lock, and run publishes what it resolved where memory finds it (an
// LRU insert, a store Put) before the flight leaves the table, so an ask
// finds one or the other. Every waiter shares run's answer, error included,
// and run publishes nothing on error. A non-nil wait bounds this ask's wait: past it do answers
// errSimBudget and the run finishes regardless.
func (t *flights) do(key string, memory func() (resolved, bool), run func() (resolved, error), wait <-chan time.Time) (r resolved, started bool, err error) {
	t.mu.Lock()
	if r, ok := memory(); ok {
		t.mu.Unlock()
		return r, false, nil
	}
	f := t.m[key]
	if started = f == nil; started {
		f = &flight{done: make(chan struct{})}
		if t.m == nil {
			t.m = map[string]*flight{}
		}
		t.m[key] = f
		go func() {
			f.r, f.err = run()
			t.mu.Lock()
			delete(t.m, key)
			t.mu.Unlock()
			close(f.done)
		}()
	}
	t.mu.Unlock()
	select {
	case <-f.done:
		return f.r, started, f.err
	case <-wait:
		return resolved{}, started, errSimBudget
	}
}

// design resolves key's design through the LRU c and t: a resident design,
// else the run in flight for key, else run, whose design enters c before the
// flight leaves t. A starter counts as a miss in c's stats; any other ask as
// a hit, and a joiner shares the design alone.
func (t *flights) design(c *Cache, key string, run func() (resolved, error)) (resolved, bool, error) {
	r, started, err := t.do(key, func() (resolved, bool) {
		d := c.Get(key)
		return resolved{d: d}, d != nil
	}, func() (resolved, error) {
		r, err := run()
		if err == nil {
			c.Seed(key, r.d)
		}
		return r, err
	}, nil)
	c.count(!started)
	if !started {
		r = resolved{d: r.d}
	}
	return r, started, err
}

// drain waits until no run is in flight.
func (t *flights) drain(ctx context.Context) error {
	for {
		var f *flight
		t.mu.Lock()
		for _, f = range t.m {
			break
		}
		t.mu.Unlock()
		if f == nil {
			return nil
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
