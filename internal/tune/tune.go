// Package tune is the design-space autotuner: it reproduces the paper's
// hand-run Fig 9 / Table 5 sweeps as an automated search. A Space enumerates
// candidate configurations (parallelization factors × optimization flags ×
// arch-spec knobs); every candidate is compiled through the incremental
// design store (par sweeps reuse the CMMC plan, arch sweeps reuse everything
// up to place) and costed with sim.Floor, a lower bound on its cycles that
// holds by construction; candidates the floor proves dominated, and those
// that do not fit their chip, are pruned; the survivors are validated with
// the cycle-accurate event engine in floor-Pareto order; and the result is a
// cycles-vs-resources front with per-point stall attribution from
// internal/profile.
//
// The search is deterministic: candidates fan across an index-addressed
// worker pool, every selection decision runs sequentially over ID-ordered
// slices, and compilation is a pure function of (program, config) — so the
// result is bit-identical at any worker count, and identical whether
// compiles are served locally, from the store, or through a sarad cluster.
//
// Pruning contract: a candidate p is pruned only when some already-validated
// point v uses no more resources and satisfies v.Cycles ≤ Floor(p). The
// floor is at most p's true cycle count on every design — the most firings
// of any one unit, or a DRAM channel's read bytes at peak bandwidth (sim.Floor
// says why each holds) — so the pruned point is no faster than v: it could
// at best tie the front, never extend it. The engines' equivalence suites
// assert Floor ≤ cycles on every design they run.
package tune

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/sweep"
	"sara/internal/workloads"
)

// CompileFunc compiles one candidate: the workload at p's factor and opt set,
// on spec with placement skipped. The default builds the program and wires
// core.Compile through the search's design store; sarad substitutes its
// cluster compile path (LRU → store → ring-owner proxy → local).
// Implementations must be pure in (p.Par, p.Opt, spec): the search's
// bit-identity guarantee rests on it.
type CompileFunc func(p Point, spec *arch.Spec) (*core.Compiled, error)

// Options configures one search.
type Options struct {
	// Workload names the registered workload to tune.
	Workload string
	// Scale is the problem-size multiplier (default 1).
	Scale int
	// Space is the candidate grid; an empty space holds the single default
	// point.
	Space Space
	// Base is the seed chip the space's knobs override, in its wire form
	// (the zero value is the 20×20 chip); Point.Arch overlays each point.
	Base arch.SpecJSON
	// BaselinePar is the reference configuration's parallelization factor
	// (default: the workload's paper default). The baseline compiles with
	// every optimization on and falls back to smaller factors until it fits,
	// exactly like the eval harness's hand-picked configuration.
	BaselinePar int
	// Workers bounds candidate-processing concurrency (0 = GOMAXPROCS).
	Workers int
	// MaxPoints caps the enumerated space (0 = 1024); larger spaces are an
	// error, so service callers can bound request cost.
	MaxPoints int
	// Store is the design store compiles memoize through (nil = fresh
	// in-memory store). Sharing a warmed store across searches is the
	// intended mode: arch-knob recompiles then reuse every stage.
	Store *store.Store
	// Compile overrides the compile path (nil = core.Compile with Store).
	Compile CompileFunc
}

// Status classifies a point's fate.
type Status string

const (
	// StatusValidated means the cycle engine measured the point (directly or
	// via an identical design).
	StatusValidated Status = "validated"
	// StatusPruned means a validated point no larger is no slower than the
	// point's cycle floor: the point is dominated.
	StatusPruned Status = "pruned"
	// StatusUnfit means the compiled design needs more units than the
	// point's chip provides.
	StatusUnfit Status = "unfit"
	// StatusError means compilation or simulation failed.
	StatusError Status = "error"
)

// PointResult is one candidate's outcome.
type PointResult struct {
	Point  Point  `json:"point"`
	Status Status `json:"status"`
	Err    string `json:"err,omitempty"`

	// FloorCycles is sim.Floor's lower bound on the point's cycles.
	FloorCycles int64 `json:"floor_cycles,omitempty"`
	// Cycles is the event engine's measurement (validated points only).
	Cycles int64 `json:"cycles,omitempty"`

	PCU   int `json:"pcu,omitempty"`
	PMU   int `json:"pmu,omitempty"`
	AG    int `json:"ag,omitempty"`
	Total int `json:"total,omitempty"`

	// Bottleneck attribution from the profiled validation run: the most
	// stalled unit, its dominant stall cause, and its total stall cycles.
	Bottleneck      string `json:"bottleneck,omitempty"`
	BottleneckCause string `json:"bottleneck_cause,omitempty"`
	StallCycles     int64  `json:"stall_cycles,omitempty"`

	// AtBaseArch reports whether the point's materialized spec matches the
	// seed arch on every tuner knob (an explicit override equal to the base
	// value still counts as base).
	AtBaseArch bool `json:"at_base_arch,omitempty"`
	// Pareto marks front membership among validated points.
	Pareto bool `json:"pareto,omitempty"`
	// PrunedBy is the validated point that proved this one dominated (-1
	// when not pruned; -2 when pruned by the baseline).
	PrunedBy int `json:"pruned_by"`
	// SharedWith is the lower-ID point whose byte-identical design supplied
	// this point's measurement (-1 when measured directly).
	SharedWith int `json:"shared_with"`
}

// Baseline is the reference configuration's measurement.
type Baseline struct {
	RequestedPar int   `json:"requested_par"`
	Par          int   `json:"par"`
	Cycles       int64 `json:"cycles"`
	Total        int   `json:"total"`
}

// Stats summarizes the search. WallMS and the stage-cache counters depend on
// scheduling and store warmth; everything else is deterministic.
type Stats struct {
	Explored        int `json:"explored"`
	Unfit           int `json:"unfit"`
	PrunedDominated int `json:"pruned_dominated"`
	Validated       int `json:"validated"`
	Errors          int `json:"errors"`
	// CycleSims counts event-engine runs actually executed (baseline
	// included); SharedSims counts points that inherited an identical
	// design's measurement instead of re-simulating.
	CycleSims  int `json:"cycle_sims"`
	SharedSims int `json:"shared_sims"`
	Rounds     int `json:"rounds"`

	StageHits    int64   `json:"stage_hits"`
	StageMisses  int64   `json:"stage_misses"`
	StageHitRate float64 `json:"stage_hit_rate"`
	WallMS       int64   `json:"wall_ms"`
}

// PrunedFraction is the share of explored points discarded without a cycle
// simulation — dominance-pruned plus unfittable.
func (s *Stats) PrunedFraction() float64 {
	if s.Explored == 0 {
		return 0
	}
	return float64(s.PrunedDominated+s.Unfit) / float64(s.Explored)
}

// Result is a completed search.
type Result struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Arch     string `json:"arch"`

	// Points holds every candidate in ID (enumeration) order.
	Points []PointResult `json:"points"`
	// Front lists the IDs of Pareto-optimal validated points, sorted by
	// (total units asc, cycles asc, ID asc).
	Front []int `json:"front"`

	Baseline Baseline `json:"baseline"`
	Stats    Stats    `json:"stats"`
}

// Best returns the validated point with the fewest cycles (lowest ID on
// ties), or nil if nothing validated.
func (r *Result) Best() *PointResult {
	return r.best(func(p *PointResult) bool { return true })
}

// BestAtBaseArch returns the fastest validated point that keeps every arch
// knob at the seed spec's value, or nil.
func (r *Result) BestAtBaseArch() *PointResult {
	return r.best(func(p *PointResult) bool { return p.AtBaseArch })
}

// sameArchKnobs reports whether two specs agree on every knob the tuner can
// turn.
func sameArchKnobs(a, b *arch.Spec) bool {
	return a.NumPCU == b.NumPCU && a.NumPMU == b.NumPMU && a.NumAG == b.NumAG &&
		a.DRAM.Channels == b.DRAM.Channels && a.Rows == b.Rows && a.Cols == b.Cols &&
		a.PCU.InBufDepth == b.PCU.InBufDepth && a.PMU.InBufDepth == b.PMU.InBufDepth &&
		a.AG.InBufDepth == b.AG.InBufDepth
}

func (r *Result) best(keep func(*PointResult) bool) *PointResult {
	var best *PointResult
	for i := range r.Points {
		p := &r.Points[i]
		if p.Status != StatusValidated || !keep(p) {
			continue
		}
		if best == nil || p.Cycles < best.Cycles {
			best = p
		}
	}
	return best
}

// candidate is the search's working state for one point.
type candidate struct {
	res      *PointResult
	compiled *core.Compiled
	spec     *arch.Spec
	key      string // design-identity hash; "" for error/unfit points
	leader   int    // lowest point ID sharing this design (== own ID for leaders)
	pending  bool   // fit, not yet validated or pruned
}

// Run executes the search.
func Run(o Options) (*Result, error) {
	t0 := time.Now()
	w, err := workloads.ByName(o.Workload)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	baseSpec, err := o.Base.Spec()
	if err != nil {
		return nil, fmt.Errorf("tune: base spec: %w", err)
	}
	if o.BaselinePar <= 0 {
		o.BaselinePar = w.DefaultPar
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 1024
	}
	if o.Store == nil {
		o.Store, _ = store.Open("") // memory-only store never fails
	}
	compile := o.Compile
	if compile == nil {
		compile = func(p Point, spec *arch.Spec) (*core.Compiled, error) {
			prog := w.Build(workloads.Params{Par: p.Par, Scale: o.Scale})
			return core.Compile(prog, core.Config{Spec: spec, Opt: p.Opt.Opts, SkipPlace: true, Memo: o.Store})
		}
	}
	if sz := o.Space.Size(); sz > o.MaxPoints {
		return nil, fmt.Errorf("tune: space has %d points, cap is %d", sz, o.MaxPoints)
	}
	pts, err := o.Space.points(w.DefaultPar)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Workload: o.Workload,
		Scale:    o.Scale,
		Arch:     baseSpec.Name,
		Points:   make([]PointResult, len(pts)),
	}
	stats0 := stageTraffic(o.Store)

	// Explore: compile and cost every candidate in parallel. Results land in
	// index-addressed slots; a per-point failure is recorded, not fatal.
	cands := make([]candidate, len(pts))
	err = sweep.ForEachIndexed(len(pts), o.Workers, func(i int) error {
		p := pts[i]
		c := &cands[i]
		c.res = &res.Points[i]
		c.res.Point = p
		c.res.PrunedBy = -1
		c.res.SharedWith = -1
		spec, err := p.Spec(o.Base)
		if err != nil {
			c.res.Status, c.res.Err = StatusError, err.Error()
			return nil
		}
		c.spec = spec
		c.res.AtBaseArch = sameArchKnobs(spec, baseSpec)
		compiled, err := compile(p, spec)
		if err != nil {
			c.res.Status, c.res.Err = StatusError, err.Error()
			return nil
		}
		c.compiled = compiled
		r := compiled.Resources()
		c.res.PCU, c.res.PMU, c.res.AG, c.res.Total = r.PCU, r.PMU, r.AG, r.Total
		floor, err := sim.Floor(compiled.Design())
		if err != nil {
			c.res.Status, c.res.Err = StatusError, err.Error()
			return nil
		}
		c.res.FloorCycles = floor
		if !r.Fits(spec) {
			c.res.Status = StatusUnfit
			return nil
		}
		c.key = designKey(compiled)
		c.pending = true
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Group byte-identical designs: only the lowest-ID point of each group
	// (its leader) is ever simulated; followers inherit the measurement. Two
	// points share a key only when both the compiled design and every
	// sim-relevant spec field match, so their true cycle counts are equal by
	// construction.
	leaderOf := map[string]int{}
	for i := range cands {
		c := &cands[i]
		if !c.pending {
			continue
		}
		if l, ok := leaderOf[c.key]; ok {
			c.leader = l
		} else {
			leaderOf[c.key] = i
			c.leader = i
		}
	}

	// Baseline: the eval harness's hand-picked configuration — the paper
	// default par (falling back until it fits), all optimizations on, seed
	// arch. It seeds the validated set, so clearly-dominated candidates
	// prune against it from round one.
	base, err := runBaseline(o, baseSpec, compile)
	if err != nil {
		return nil, err
	}
	res.Baseline = base.asBaseline()

	// Validated set, in insertion order with the baseline first. Pruning
	// scans it in order, so PrunedBy attribution is deterministic.
	type validated struct {
		id     int // point ID, or -2 for the baseline
		cycles int64
		total  int
	}
	vset := []validated{{id: -2, cycles: base.cycles, total: base.total}}
	if l, ok := leaderOf[base.key]; ok {
		// The baseline coincides with a candidate design: that group is
		// already measured.
		adopt(cands, l, base.cycles, base.bottleneck, base.cause, base.stalls, -1)
		res.Stats.SharedSims++
		vset = append(vset, validated{id: l, cycles: base.cycles, total: cands[l].res.Total})
	}

	// Prune/validate rounds. Each round first prunes every pending leader
	// the validated set dominates on its cycle floor, then validates the
	// floor-Pareto front of the remainder in parallel. The minimum-floor
	// survivor is always on that front, so every round retires at least one
	// leader and the loop terminates.
	for {
		var pendingLeaders []int
		for i := range cands {
			c := &cands[i]
			if c.pending && c.leader == i {
				pruned := false
				for _, v := range vset {
					if v.total <= c.res.Total && v.cycles <= c.res.FloorCycles {
						prune(cands, i, v.id)
						pruned = true
						break
					}
				}
				if !pruned {
					pendingLeaders = append(pendingLeaders, i)
				}
			}
		}
		if len(pendingLeaders) == 0 {
			break
		}
		res.Stats.Rounds++
		wave := floorFront(cands, pendingLeaders)
		simErr := sweep.ForEachIndexed(len(wave), o.Workers, func(wi int) error {
			i := wave[wi]
			c := &cands[i]
			r, rec, err := sim.CycleProfiled(c.compiled.Design(), 0, sim.EngineEvent)
			if err != nil {
				c.res.Status, c.res.Err = StatusError, err.Error()
				c.pending = false
				return nil
			}
			name, cause, stalls := attribution(rec)
			adopt(cands, i, r.Cycles, name, cause, stalls, -1)
			return nil
		})
		if simErr != nil {
			return nil, simErr
		}
		// Sequential post-wave bookkeeping: extend the validated set in wave
		// order.
		for _, i := range wave {
			c := &cands[i]
			if c.res.Status == StatusError {
				continue
			}
			res.Stats.CycleSims++
			vset = append(vset, validated{id: i, cycles: c.res.Cycles, total: c.res.Total})
		}
	}

	// Propagate group leaders' outcomes to followers and tally.
	for i := range cands {
		c := &cands[i]
		if c.res.Status == "" && c.leader != i {
			l := &cands[c.leader]
			switch l.res.Status {
			case StatusValidated:
				adopt(cands, i, l.res.Cycles, l.res.Bottleneck, l.res.BottleneckCause, l.res.StallCycles, c.leader)
				res.Stats.SharedSims++
			case StatusPruned:
				prune(cands, i, l.res.PrunedBy)
			case StatusError:
				c.res.Status, c.res.Err = StatusError, l.res.Err
			}
		}
	}
	res.Stats.CycleSims++ // the baseline run
	for i := range res.Points {
		switch res.Points[i].Status {
		case StatusValidated:
			res.Stats.Validated++
		case StatusPruned:
			res.Stats.PrunedDominated++
		case StatusUnfit:
			res.Stats.Unfit++
		case StatusError:
			res.Stats.Errors++
		default:
			return nil, fmt.Errorf("tune: point %d finished without a status", i)
		}
	}
	res.Stats.Explored = len(res.Points)
	markFront(res)

	t := stageTraffic(o.Store)
	hits, misses := t[0]-stats0[0], t[1]-stats0[1]
	res.Stats.StageHits, res.Stats.StageMisses = hits, misses
	if hits+misses > 0 {
		res.Stats.StageHitRate = float64(hits) / float64(hits+misses)
	}
	res.Stats.WallMS = time.Since(t0).Milliseconds()
	return res, nil
}

// prune marks point i (and nothing else) pruned by validated point `by`.
func prune(cands []candidate, i, by int) {
	c := &cands[i]
	c.res.Status = StatusPruned
	c.res.PrunedBy = by
	c.pending = false
}

// adopt records a validated measurement on point i.
func adopt(cands []candidate, i int, cycles int64, name, cause string, stalls int64, sharedWith int) {
	c := &cands[i]
	c.res.Status = StatusValidated
	c.res.Cycles = cycles
	c.res.Bottleneck = name
	c.res.BottleneckCause = cause
	c.res.StallCycles = stalls
	c.res.SharedWith = sharedWith
	c.pending = false
}

// attribution extracts the most stalled unit from a profiled run.
func attribution(rec *profile.Recording) (name, cause string, stalls int64) {
	top := profile.Analyze(rec).TopStalled(1)
	if len(top) == 0 {
		return "", "none", 0
	}
	c, _ := top[0].DominantStall()
	return top[0].Name, c.String(), top[0].StallTotal()
}

// Staircase returns the Pareto staircase of ids: sorted by (resources asc,
// value asc, ID asc), each id whose value is strictly lower than that of
// every id before it, in that order. A lower value is better. Coordinate
// ties keep the lowest ID only, so the staircase is strict. The search's
// validation waves and its front, and eval's Fig 9b, all read their fronts
// off it.
func Staircase[V cmp.Ordered](ids []int, resources func(id int) int, value func(id int) V) []int {
	sorted := slices.Clone(ids)
	slices.SortFunc(sorted, func(a, b int) int {
		return cmp.Or(cmp.Compare(resources(a), resources(b)), cmp.Compare(value(a), value(b)), cmp.Compare(a, b))
	})
	var front []int
	for _, id := range sorted {
		if len(front) == 0 || value(id) < value(front[len(front)-1]) {
			front = append(front, id)
		}
	}
	return front
}

// floorFront selects the validation wave, in ID order: the (total, floor)
// staircase of the pending leaders.
func floorFront(cands []candidate, ids []int) []int {
	wave := Staircase(ids, func(i int) int { return cands[i].res.Total },
		func(i int) int64 { return cands[i].res.FloorCycles })
	slices.Sort(wave)
	return wave
}

// markFront marks the cycles-vs-resources Pareto front over validated
// points: their (total, cycles) staircase, in staircase order, so the export
// is stable.
func markFront(res *Result) {
	var ids []int
	for i := range res.Points {
		if res.Points[i].Status == StatusValidated {
			ids = append(ids, i)
		}
	}
	res.Front = Staircase(ids, func(i int) int { return res.Points[i].Total },
		func(i int) int64 { return res.Points[i].Cycles })
	for _, i := range res.Front {
		res.Points[i].Pareto = true
	}
}

// stageTraffic sums the store's per-stage hit/miss counters.
func stageTraffic(s *store.Store) [2]int64 {
	var t [2]int64
	for _, st := range s.Stats().Stages {
		t[0] += st.Hits
		t[1] += st.Misses
	}
	return t
}

// designKey hashes everything that determines a compiled design's simulated
// behaviour: the full pipeline snapshot bytes plus the sim-relevant spec
// fields (DRAM system, network latencies, unit pipeline shapes). Points with
// equal keys have equal true cycle counts, so one measurement serves all.
// Spec fields that only affect fitting (unit counts, grid size under
// SkipPlace, clock) are deliberately excluded — that exclusion is what lets
// a NumPCU sweep validate once.
func designKey(c *core.Compiled) string {
	h := sha256.New()
	h.Write(store.EncodeSnapshot(c.Artifact().State))
	s := c.Spec
	fmt.Fprintf(h, "|dram=%d,%d,%g,%d,%d|net=%d,%d,%d|pcu=%d,%d,%d|pmu=%d,%d,%d,%d|ag=%d,%d,%d",
		int(s.DRAM.Kind), s.DRAM.Channels, s.DRAM.BytesPerCyclePerChannel, s.DRAM.LatencyCycles, s.DRAM.BurstBytes,
		s.NetHopLatencyCycles, s.DefaultStreamHops, s.LinkLanes,
		s.PCU.Lanes, s.PCU.Stages, s.PCU.InBufDepth,
		s.PMU.Lanes, s.PMU.Stages, s.PMU.InBufDepth, int(s.PMU.ScratchElems),
		s.AG.Lanes, s.AG.Stages, s.AG.InBufDepth)
	return hex.EncodeToString(h.Sum(nil))
}

// baselineRun is the measured reference configuration.
type baselineRun struct {
	requested  int
	par        int
	cycles     int64
	total      int
	key        string
	bottleneck string
	cause      string
	stalls     int64
}

func (b *baselineRun) asBaseline() Baseline {
	return Baseline{RequestedPar: b.requested, Par: b.par, Cycles: b.cycles, Total: b.total}
}

// runBaseline compiles and measures the hand-picked reference point at the
// largest factor core.CompileFit finds to fit, as the eval harness does.
func runBaseline(o Options, spec *arch.Spec, compile CompileFunc) (*baselineRun, error) {
	c, par, err := core.CompileFit(o.BaselinePar, spec, func(par int) (*core.Compiled, error) {
		return compile(Point{ID: -2, Par: par, Opt: NamedOptSets[0]}, spec)
	})
	var sr *sim.Result
	var rec *profile.Recording
	if err == nil {
		sr, rec, err = sim.CycleProfiled(c.Design(), 0, sim.EngineEvent)
	}
	if err != nil {
		return nil, fmt.Errorf("tune: baseline %s par %d: %w", o.Workload, par, err)
	}
	b := &baselineRun{requested: o.BaselinePar, par: par, cycles: sr.Cycles,
		total: c.Resources().Total, key: designKey(c)}
	b.bottleneck, b.cause, b.stalls = attribution(rec)
	return b, nil
}
