// Package tune is the design-space autotuner: it reproduces the paper's
// hand-run Fig 9 / Table 5 sweeps as an automated search. A Space enumerates
// candidate configurations (parallelization factors × optimization flags ×
// arch-spec knobs); every candidate is compiled through the incremental
// design store (par sweeps reuse the CMMC plan, arch sweeps reuse everything
// up to place) and costed with sim.Analytic's steady-state bottleneck model;
// candidates the analytic model proves dominated or unfittable are pruned;
// the survivors are validated with the cycle-accurate event engine in
// Pareto-front order; and the result is a cycles-vs-resources front with
// per-point stall attribution from internal/profile.
//
// The search is deterministic: candidates fan across an index-addressed
// worker pool, every selection decision runs sequentially over ID-ordered
// slices, and compilation is a pure function of (program, config) — so the
// result is bit-identical at any worker count, and identical whether
// compiles are served locally, from the store, or through a sarad cluster.
//
// Pruning contract: a candidate p is pruned only when some already-validated
// point v uses no more resources and satisfies v.Cycles ≤ Analytic(p)/Slack,
// where Slack is the documented per-workload ceiling on the analytic/event
// cycle ratio (MaxAnalyticRatio, pinned by TestAnalyticRatioCeilings in
// internal/sim). Since Analytic(p) ≤ Slack·Event(p) on the workload, the
// pruned point's true cycle count is at least v's — it could at best tie the
// front, never extend it. Every validated point re-checks the ceiling at
// runtime and the search fails loudly on a violation rather than risk an
// unsound front.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/internal/sweep"
	"sara/internal/workloads"
)

// analyticRatioCeiling documents, per workload, the largest analytic/event
// cycle ratio observed across the tuner's knob domain (pars, opt sets, DRAM
// channels, stream depths) with safety margin. The soundness suite in
// internal/sim/analytic_bound_test.go measures the ratio across a
// representative table and fails if any workload exceeds its ceiling — that
// test is the contract the pruning rule relies on.
var analyticRatioCeiling = map[string]float64{
	"bs":     1.10, // max measured 0.881 (opts=none: event speeds up, analytic doesn't)
	"gda":    2.20, // max measured 1.818 at par32
	"kmeans": 1.25, // max measured 1.000
	"logreg": 0.40, // max measured 0.306 — model undershoots several-fold
	"lstm":   2.10, // max measured 1.740 — known EXPERIMENTS.md limitation
	"mlp":    1.20, // max measured 0.967
	"ms":     1.15, // max measured 0.917
	"pr":     0.30, // max measured 0.228 — strongest pruning floor
	"rf":     0.65, // max measured 0.524
	"sgd":    0.40, // max measured 0.306
	"snet":   1.30, // max measured 1.038 (par4 only; higher pars fail compile)
	"sort":   4.60, // max measured 3.849 — channel cuts overestimated, weak pruning
}

// DefaultRatioCeiling is the conservative fallback for workloads without a
// measured entry: weak pruning, but sound as long as the model stays within
// the worst measured workload's band.
const DefaultRatioCeiling = 5.0

// MaxAnalyticRatio returns the documented ceiling on analytic/event cycles
// for a workload. The tuner divides analytic estimates by this ratio to get
// a sound lower bound on true cycles.
func MaxAnalyticRatio(workload string) float64 {
	if r, ok := analyticRatioCeiling[workload]; ok {
		return r
	}
	return DefaultRatioCeiling
}

// CompileFunc compiles one candidate. The default wires core.Compile through
// the search's design store; sarad substitutes its cluster compile path
// (LRU → store → ring-owner proxy → local). Implementations must be pure in
// (prog, cfg): the search's bit-identity guarantee rests on it.
type CompileFunc func(p Point, prog *ir.Program, cfg core.Config) (*core.Compiled, error)

// Options configures one search.
type Options struct {
	// Workload names the registered workload to tune.
	Workload string
	// Scale is the problem-size multiplier (default 1).
	Scale int
	// Space is the candidate grid; an empty space holds the single default
	// point.
	Space Space
	// Base is the seed chip the space's knobs override (default SARA20x20).
	Base *arch.Spec
	// BaselinePar is the reference configuration's parallelization factor
	// (default: the workload's paper default). The baseline compiles with
	// every optimization on and falls back to smaller factors until it fits,
	// exactly like the eval harness's hand-picked configuration.
	BaselinePar int
	// Slack overrides MaxAnalyticRatio(Workload); values below 1 tighten the
	// pruning floor below the documented contract and are rejected unless
	// they match the workload ceiling.
	Slack float64
	// Workers bounds candidate-processing concurrency (0 = GOMAXPROCS).
	Workers int
	// MaxPoints caps the enumerated space (0 = 1024); larger spaces are an
	// error, so service callers can bound request cost.
	MaxPoints int
	// MaxCycles caps each validation run (0 = 2e8); a design that exceeds it
	// is recorded as an error point, not silently kept.
	MaxCycles int64
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
	// StatusPruned means the analytic model proved the point dominated.
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

	// AnalyticCycles is the steady-state model's estimate.
	AnalyticCycles int64 `json:"analytic_cycles,omitempty"`
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

// PrunedFraction is the share of explored points the analytic layer
// discarded without a cycle simulation — dominance-pruned plus unfittable.
func (s *Stats) PrunedFraction() float64 {
	if s.Explored == 0 {
		return 0
	}
	return float64(s.PrunedDominated+s.Unfit) / float64(s.Explored)
}

// Result is a completed search.
type Result struct {
	Workload string  `json:"workload"`
	Scale    int     `json:"scale"`
	Arch     string  `json:"arch"`
	Slack    float64 `json:"slack"`

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
	if o.Base == nil {
		o.Base = arch.SARA20x20()
	}
	if err := o.Base.Validate(); err != nil {
		return nil, fmt.Errorf("tune: base spec: %w", err)
	}
	if o.BaselinePar <= 0 {
		o.BaselinePar = w.DefaultPar
	}
	if o.Slack == 0 {
		o.Slack = MaxAnalyticRatio(o.Workload)
	}
	if o.Slack <= 0 {
		return nil, fmt.Errorf("tune: slack %v invalid: must be positive", o.Slack)
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 1024
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 200_000_000
	}
	if o.Store == nil {
		o.Store, _ = store.Open("") // memory-only store never fails
	}
	compile := o.Compile
	if compile == nil {
		compile = func(p Point, prog *ir.Program, cfg core.Config) (*core.Compiled, error) {
			return core.Compile(prog, cfg)
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
		Arch:     o.Base.Name,
		Slack:    o.Slack,
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
		c.res.AtBaseArch = sameArchKnobs(spec, o.Base)
		cfg := core.Config{Spec: spec, Opt: p.Opt.Opts, SkipPlace: true, Memo: o.Store}
		compiled, err := compile(p, w.Build(workloads.Params{Par: p.Par, Scale: o.Scale}), cfg)
		if err != nil {
			c.res.Status, c.res.Err = StatusError, err.Error()
			return nil
		}
		c.compiled = compiled
		r := compiled.Resources()
		c.res.PCU, c.res.PMU, c.res.AG, c.res.Total = r.PCU, r.PMU, r.AG, r.Total
		a, err := sim.Analytic(compiled.Design())
		if err != nil {
			c.res.Status, c.res.Err = StatusError, err.Error()
			return nil
		}
		c.res.AnalyticCycles = a.Cycles
		if r.PCU > spec.NumPCU || r.PMU > spec.NumPMU || r.AG > spec.NumAG {
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
	base, err := runBaseline(o, w, compile)
	if err != nil {
		return nil, err
	}
	res.Baseline = base.asBaseline()
	if err := checkCeiling(o, "baseline", base.analytic, base.cycles); err != nil {
		return nil, err
	}

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
	// the validated set dominates under the slack floor, then validates the
	// analytic-Pareto front of the remainder in parallel. The minimum-
	// analytic survivor is always on that front, so every round retires at
	// least one leader and the loop terminates.
	for {
		var pendingLeaders []int
		for i := range cands {
			c := &cands[i]
			if c.pending && c.leader == i {
				// Sound floor on true cycles: Analytic ≤ Slack·Event on this
				// workload (the documented ceiling), so Event ≥ Analytic/Slack.
				floor := float64(c.res.AnalyticCycles) / o.Slack
				pruned := false
				for _, v := range vset {
					if v.total <= c.res.Total && float64(v.cycles) <= floor {
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
		wave := analyticFront(cands, pendingLeaders)
		simErr := sweep.ForEachIndexed(len(wave), o.Workers, func(wi int) error {
			i := wave[wi]
			c := &cands[i]
			r, rec, err := sim.CycleProfiled(c.compiled.Design(), o.MaxCycles, sim.EngineEvent)
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
		// Sequential post-wave bookkeeping: contract guard, then extend the
		// validated set in wave order.
		for _, i := range wave {
			c := &cands[i]
			if c.res.Status == StatusError {
				continue
			}
			res.Stats.CycleSims++
			if err := checkCeiling(o, c.res.Point.Label(), c.res.AnalyticCycles, c.res.Cycles); err != nil {
				return nil, err
			}
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

// checkCeiling enforces the pruning contract on a validated measurement.
func checkCeiling(o Options, label string, analytic, cycles int64) error {
	if cycles > 0 && float64(analytic) > o.Slack*float64(cycles) {
		return fmt.Errorf("tune: analytic model exceeded its documented ceiling on %s %s: analytic %d > %.3g x event %d — the pruning floor would be unsound; raise Slack (and update the %s entry in the soundness table)",
			o.Workload, label, analytic, o.Slack, cycles, o.Workload)
	}
	return nil
}

// analyticFront selects the validation wave: the (total, analytic) Pareto
// front of the pending leaders, lowest ID winning coordinate ties.
func analyticFront(cands []candidate, ids []int) []int {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool {
		ca, cb := cands[sorted[a]].res, cands[sorted[b]].res
		if ca.Total != cb.Total {
			return ca.Total < cb.Total
		}
		if ca.AnalyticCycles != cb.AnalyticCycles {
			return ca.AnalyticCycles < cb.AnalyticCycles
		}
		return sorted[a] < sorted[b]
	})
	var wave []int
	best := int64(-1)
	for _, i := range sorted {
		a := cands[i].res.AnalyticCycles
		if best < 0 || a < best {
			wave = append(wave, i)
			best = a
		}
	}
	sort.Ints(wave)
	return wave
}

// markFront computes the cycles-vs-resources Pareto front over validated
// points: sorted by (total units asc, cycles asc, ID asc), a point is on the
// front iff it strictly improves cycles over every point with no more units.
// Coordinate ties keep the lowest ID only, so the front is a strict
// staircase and the export is stable.
func markFront(res *Result) {
	var ids []int
	for i := range res.Points {
		if res.Points[i].Status == StatusValidated {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := &res.Points[ids[a]], &res.Points[ids[b]]
		if pa.Total != pb.Total {
			return pa.Total < pb.Total
		}
		if pa.Cycles != pb.Cycles {
			return pa.Cycles < pb.Cycles
		}
		return ids[a] < ids[b]
	})
	best := int64(-1)
	for _, i := range ids {
		p := &res.Points[i]
		if best < 0 || p.Cycles < best {
			p.Pareto = true
			res.Front = append(res.Front, i)
			best = p.Cycles
		}
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
	analytic   int64
	total      int
	key        string
	bottleneck string
	cause      string
	stalls     int64
}

func (b *baselineRun) asBaseline() Baseline {
	return Baseline{RequestedPar: b.requested, Par: b.par, Cycles: b.cycles, Total: b.total}
}

// runBaseline compiles and measures the hand-picked reference point,
// falling back to smaller factors until the design fits (the eval harness's
// compileFit behaviour).
func runBaseline(o Options, w *workloads.Workload, compile CompileFunc) (*baselineRun, error) {
	par := o.BaselinePar
	b := &baselineRun{requested: o.BaselinePar}
	for {
		p := Point{ID: -2, Par: par, Opt: NamedOptSets[0]}
		cfg := core.Config{Spec: o.Base, Opt: p.Opt.Opts, SkipPlace: true, Memo: o.Store}
		c, err := compile(p, w.Build(workloads.Params{Par: par, Scale: o.Scale}), cfg)
		if err != nil {
			return nil, fmt.Errorf("tune: baseline %s par %d: %w", o.Workload, par, err)
		}
		r := c.Resources()
		if (r.PCU <= o.Base.NumPCU && r.PMU <= o.Base.NumPMU && r.AG <= o.Base.NumAG) || par == 1 {
			a, err := sim.Analytic(c.Design())
			if err != nil {
				return nil, fmt.Errorf("tune: baseline %s par %d: %w", o.Workload, par, err)
			}
			sr, rec, err := sim.CycleProfiled(c.Design(), o.MaxCycles, sim.EngineEvent)
			if err != nil {
				return nil, fmt.Errorf("tune: baseline %s par %d: %w", o.Workload, par, err)
			}
			b.par, b.cycles, b.analytic, b.total = par, sr.Cycles, a.Cycles, r.Total
			b.key = designKey(c)
			b.bottleneck, b.cause, b.stalls = attribution(rec)
			return b, nil
		}
		if par > 2 {
			par /= 2
		} else {
			par = 1
		}
	}
}
