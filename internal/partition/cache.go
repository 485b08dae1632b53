package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"
)

// SolverCache memoizes partitioning work across compiles. The compute
// partitioner and the global merger both reduce to solving Instances, and an
// Instance is content-addressable: it captures the complete input of
// Traversal/Solver (node costs, edges, arity limits, conflicts, alpha) and
// nothing else. Par-factor changes, in particular, regenerate the *same*
// instances — lowering unrolls more copies of identical blocks — so a cache
// hit here skips the dominant cost of a recompile even though the lowered
// graph itself changed.
//
// Two implementations exist. The design store (internal/store) keeps results
// across compiles and processes, and is the cache of every incremental
// compile (core.Config.Memo). A pass given no cache makes its own pass-local
// memo (PassCache), so a single cold compile solves each distinct instance
// once — unrolling by par repeats them. Either way an instance the cache does
// not answer is solved from its content alone.
//
// Implementations must return results that the caller may mutate (i.e.
// defensive copies); one shared between compiles must also be safe for
// concurrent use. The interface lives here rather than in internal/store so
// that partition does not depend on the store package (store imports
// partition for the Result type).
type SolverCache interface {
	// LookupResult returns the memoized result for an instance content key.
	LookupResult(key string) (*Result, bool)
	// StoreResult memoizes a result under an instance content key.
	StoreResult(key string, r *Result)
}

// ContentKey returns a canonical content hash of the instance plus the
// algorithm and the solution-relevant solver options. ColdLP is deliberately
// excluded: it selects the compile benchmark's cold-relaxation baseline, and
// a result cached under one LP mode answers the other. Every cold compile
// treats two units with one key as repeats (PassCache), so an input the
// solver reads must be in the key; TestContentKeyCoversInputs fails when a
// field is added without it.
func (in *Instance) ContentKey(algo Algorithm, sopts SolverOptions) string {
	var b []byte
	app := func(x int64) { b = binary.AppendVarint(b, x) }
	appPairs := func(ps [][2]int) {
		app(int64(len(ps)))
		for _, p := range ps {
			app(int64(p[0]))
			app(int64(p[1]))
		}
	}
	appInts := func(xs []int) {
		if xs == nil {
			app(-1)
			return
		}
		app(int64(len(xs)))
		for _, x := range xs {
			app(int64(x))
		}
	}
	b = append(b, "sara-partition-instance-1\x00"...)
	app(int64(algo))
	app(int64(in.N))
	appInts(in.Ops)
	appPairs(in.Edges)
	appPairs(in.OrderEdges)
	app(int64(in.MaxOps))
	app(int64(in.MaxIn))
	app(int64(in.MaxOut))
	appInts(in.ExtIn)
	appInts(in.ExtOut)
	appPairs(in.Conflicts)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Alpha))
	if algo == AlgoSolver {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sopts.Gap))
		app(int64(sopts.MaxNodes))
		app(int64(sopts.TimeLimit / time.Nanosecond))
		app(int64(sopts.MaxParts))
		app(int64(sopts.MaxN))
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// PassCache returns cache, or, when it is nil, a new pass-local instance
// memo: Apply and merge.Merge call it once per pass, so a compile without a
// store still solves each distinct instance once. The memo hands back a copy
// of an instance's first Result, MIPNodes included, so a repeat reports
// exactly what re-solving it would (the solver is deterministic under a node
// budget). It is not safe for concurrent use; a pass solves its instances
// one at a time.
func PassCache(cache SolverCache) SolverCache {
	if cache != nil {
		return cache
	}
	return passMemo{}
}

// passMemo is the pass-local instance memo (PassCache).
type passMemo map[string]*Result

func (m passMemo) LookupResult(key string) (*Result, bool) {
	r, ok := m[key]
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

func (m passMemo) StoreResult(key string, r *Result) { m[key] = r.Clone() }

// Clone returns a copy of r that shares no memory with it.
func (r *Result) Clone() *Result {
	cp := *r
	cp.Assign = append([]int(nil), r.Assign...)
	return &cp
}

// RunInstance solves one partitioning instance with the selected algorithm,
// memoized through cache, which must not be nil (a pass without one uses
// PassCache's). It is the single entry point shared by the
// compute-partitioning pass (Apply) and the global merger (merge.Merge);
// cached results include MIPNodes, so reported solver stats reproduce
// bit-identically on a warm cache.
func RunInstance(in *Instance, algo Algorithm, sopts SolverOptions, cache SolverCache) (*Result, error) {
	key := in.ContentKey(algo, sopts)
	if r, ok := cache.LookupResult(key); ok {
		return r, nil
	}
	r, err := runInstance(in, algo, sopts)
	if err != nil {
		return nil, err
	}
	cache.StoreResult(key, r)
	return r, nil
}

func runInstance(in *Instance, algo Algorithm, sopts SolverOptions) (*Result, error) {
	switch algo {
	case AlgoBFSForward:
		return Traversal(in, BFSForward)
	case AlgoBFSBackward:
		return Traversal(in, BFSBackward)
	case AlgoDFSForward:
		return Traversal(in, DFSForward)
	case AlgoDFSBackward:
		return Traversal(in, DFSBackward)
	case AlgoSolver:
		return Solver(in, sopts)
	default:
		return BestTraversal(in)
	}
}
