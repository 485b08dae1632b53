// Package sara is a from-scratch Go reproduction of SARA, the compiler that
// scales single-threaded imperative programs onto large Reconfigurable
// Dataflow Accelerators (Zhang et al., "SARA: Scaling a Reconfigurable
// Dataflow Accelerator", ISCA 2021).
//
// Programs are written against the spatial package's nested-loop frontend;
// Compile lowers them through the paper's full flow — Compiler-Managed
// Memory Consistency analysis, imperative-to-dataflow lowering, memory
// partitioning, compute partitioning (traversal- or MIP-solver-based),
// optimization passes, global merging, and placement — onto a Plasticine
// chip description from the plasticine package. The compiled design executes
// on either a cycle-level dataflow simulator or a validated analytic
// steady-state model.
//
//	prog := buildWithSpatial()
//	design, err := sara.Compile(prog, sara.WithChip(plasticine.SARA20x20()))
//	report, err := design.Simulate(sara.EngineCycle)
//	fmt.Println(report.Cycles, report.Resources.Total)
package sara

import (
	"fmt"
	"time"

	"sara/internal/core"
	"sara/internal/interp"
	"sara/internal/merge"
	"sara/internal/opt"
	"sara/internal/partition"
	"sara/internal/rda"
	"sara/internal/sim"
	"sara/internal/store"
	"sara/plasticine"
	"sara/spatial"
)

// Option configures compilation.
type Option func(*core.Config)

// WithChip targets a specific chip configuration (default: the paper's
// 20×20 HBM2 Plasticine).
func WithChip(spec *plasticine.Spec) Option {
	return func(c *core.Config) { c.Spec = spec }
}

// WithoutOptimizations disables the §III-C optimization suite (msr, rtelm,
// retime, retime-m, xbar-elm).
func WithoutOptimizations() Option {
	return func(c *core.Config) { c.Opt = opt.None() }
}

// WithOptimizationToggles sets individual optimization switches.
func WithOptimizationToggles(msr, rtelm, retime, retimeMem, xbarElm bool) Option {
	return func(c *core.Config) {
		c.Opt = opt.Options{MSR: msr, RtElm: rtelm, Retime: retime, RetimeMem: retimeMem, XbarElm: xbarElm}
	}
}

// WithSolverPartitioning uses the mixed-integer-programming partitioner and
// merger with the given relative optimality gap (the paper's methodology
// uses partition.DefaultGap, 0.15) instead of the traversal heuristics.
func WithSolverPartitioning(gap float64, maxNodes int) Option {
	return func(c *core.Config) {
		c.UseSolver(gap)
		c.Partition.MaxNodes = maxNodes
		c.Merge.MaxNodes = maxNodes
	}
}

// WithTraversalOrder forces one traversal-based partitioning order.
func WithTraversalOrder(algo partition.Algorithm) Option {
	return func(c *core.Config) {
		c.Partition.Algo = algo
		c.Merge.Algo = algo
	}
}

// WithoutBanking disables the memory partitioner (the vanilla-compiler
// restriction of §IV-C).
func WithoutBanking() Option {
	return func(c *core.Config) { c.Membank.DisableBanking = true }
}

// WithoutCreditRelaxation pins every CMMC credit to 1, disabling
// multibuffered pipelining across accessors.
func WithoutCreditRelaxation() Option {
	return func(c *core.Config) { c.Consistency.DisableCreditRelaxation = true }
}

// WithoutMerging keeps every virtual unit on its own physical unit.
func WithoutMerging() Option {
	return func(c *core.Config) { c.Merge = merge.Options{DisableMerging: true} }
}

// WithoutPlacement skips placement; simulation then charges a fixed stream
// distance. Useful for fast design-space sweeps.
func WithoutPlacement() Option {
	return func(c *core.Config) { c.SkipPlace = true }
}

// DesignStore is a persistent, content-addressed cache of per-stage compiler
// results. Compiling through one (WithDesignStore) switches Compile to the
// incremental driver: each pipeline stage's input is content-addressed and a
// recompile re-runs only the stages whose inputs actually changed — the
// output is bit-identical to a cold compile. With a directory, the store
// survives restarts; with an empty dir it memoizes within the process only.
type DesignStore struct {
	s *store.Store
}

// OpenDesignStore opens (creating if needed) a design store rooted at dir.
// An empty dir yields a memory-only store. A directory written by a
// different on-disk format version refuses to open.
func OpenDesignStore(dir string) (*DesignStore, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DesignStore{s: s}, nil
}

// StoreStats is a point-in-time snapshot of design-store counters: per-stage
// cache hits/misses/bytes, solver-instance memo traffic, and disk usage.
type StoreStats = store.Stats

// Stats returns the store's counters.
func (ds *DesignStore) Stats() StoreStats { return ds.s.Stats() }

// Close closes the store's files. Compiles through it afterwards still reuse
// what it holds in memory, and what they store stays in memory.
func (ds *DesignStore) Close() error { return ds.s.Close() }

// WithDesignStore compiles incrementally through ds. Sequential recompiles
// that change one knob (a parallelization factor, an arch parameter, an
// optimization flag) reuse every stage whose input is unchanged.
func WithDesignStore(ds *DesignStore) Option {
	return func(c *core.Config) { c.Memo = ds.s }
}

// Design is a compiled program ready for simulation.
type Design struct {
	c *core.Compiled
}

// Compile runs the full SARA flow on a spatial program.
func Compile(prog *spatial.Program, options ...Option) (*Design, error) {
	cfg := core.DefaultConfig()
	for _, o := range options {
		o(&cfg)
	}
	c, err := core.Compile(prog, cfg)
	if err != nil {
		return nil, err
	}
	return &Design{c: c}, nil
}

// Engine selects the execution engine.
type Engine int

const (
	// EngineCycle is the event-driven cycle-level dataflow simulator: exact,
	// its cost proportional to activity rather than to simulated cycles.
	EngineCycle Engine = iota
	// EngineAnalytic is the steady-state bottleneck model, validated against
	// EngineCycle and suitable for paper-scale sweeps.
	EngineAnalytic
)

// String returns the wire name of the simulator engine e selects, as the
// sarasim -engine flag and the sarad engine field spell it.
func (e Engine) String() string {
	switch e {
	case EngineCycle:
		return "cycle"
	case EngineAnalytic:
		return "analytic"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Resources summarizes physical-unit usage.
type Resources = core.Resources

// Report is a simulation outcome.
type Report struct {
	// Cycles is the end-to-end runtime in accelerator cycles.
	Cycles int64
	// Seconds is Cycles at the chip clock.
	Seconds float64
	// Engine names the engine used.
	Engine string
	// Bottleneck names the throughput-limiting unit (analytic engine).
	Bottleneck string
	// ComputeBusy is the aggregate busy fraction of compute units.
	ComputeBusy float64
	// Resources is the compiled design's footprint.
	Resources Resources
	// CompileTime is the wall-clock compilation time.
	CompileTime time.Duration
}

// Simulate executes the design.
func (d *Design) Simulate(e Engine) (*Report, error) {
	var r *sim.Result
	var err error
	switch e {
	case EngineCycle:
		r, err = sim.Cycle(d.c.Design(), 0)
	case EngineAnalytic:
		r, err = sim.Analytic(d.c.Design())
	default:
		return nil, fmt.Errorf("sara: unknown engine %v", e)
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		Cycles:      r.Cycles,
		Seconds:     r.Seconds(d.c.Spec),
		Engine:      r.Engine,
		Bottleneck:  r.BottleneckVU,
		ComputeBusy: r.ComputeBusy,
		Resources:   d.c.Resources(),
		CompileTime: d.c.CompileTime(),
	}, nil
}

// Resources reports the compiled footprint without simulating.
func (d *Design) Resources() Resources { return d.c.Resources() }

// ConsistencySummary describes the CMMC plan: synchronization streams before
// and after the control-reduction analysis (paper §III-A3).
func (d *Design) ConsistencySummary() (raw, reduced int) {
	return d.c.Plan.RawTokenCount(), d.c.Plan.TokenCount()
}

// Describe renders the CMMC plan for inspection.
func (d *Design) Describe() string { return d.c.Plan.Describe() }

// PhaseTimes exposes per-compiler-phase wall-clock durations.
func (d *Design) PhaseTimes() map[string]time.Duration { return d.c.PhaseTimes }

// StageHits reports, for an incremental compile (WithDesignStore), which
// pipeline stages were restored from the design store (true) rather than
// recomputed (false). Nil for cold compiles.
func (d *Design) StageHits() map[string]bool { return d.c.StageHits }

// SegmentedDesign is an application too large for one configuration,
// compiled as a sequence of reconfiguration segments (paper §IV-a: a runtime
// executes oversized CFGs in time by reconfiguring the RDA; on-chip state
// crossing a boundary is spilled to DRAM and refilled).
type SegmentedDesign struct {
	plan *rda.Plan
	spec *plasticine.Spec
}

// CompileSegmented splits prog into the fewest segments that each fit the
// chip and compiles every segment. A program that fits compiles into a
// single segment with no spill traffic.
func CompileSegmented(prog *spatial.Program, options ...Option) (*SegmentedDesign, error) {
	cfg := core.DefaultConfig()
	for _, o := range options {
		o(&cfg)
	}
	plan, err := rda.Split(prog, cfg)
	if err != nil {
		return nil, err
	}
	return &SegmentedDesign{plan: plan, spec: cfg.Spec}, nil
}

// Segments returns the number of reconfiguration units.
func (s *SegmentedDesign) Segments() int { return len(s.plan.Segments) }

// SpilledMems returns how many scratchpads cross segment boundaries.
func (s *SegmentedDesign) SpilledMems() int { return s.plan.SpilledMems }

// SegmentedReport is the runtime execution summary of a segmented design.
type SegmentedReport struct {
	TotalCycles    int64
	ComputeCycles  int64
	ReconfigCycles int64
	Segments       int
	Seconds        float64
}

// Run executes the segments in time, charging the chip's reconfiguration
// latency between them.
func (s *SegmentedDesign) Run() (*SegmentedReport, error) {
	rep, err := rda.Run(s.plan, s.spec)
	if err != nil {
		return nil, err
	}
	return &SegmentedReport{
		TotalCycles:    rep.TotalCycles,
		ComputeCycles:  rep.ComputeCycles,
		ReconfigCycles: rep.ReconfigCycles,
		Segments:       rep.Segments,
		Seconds:        float64(rep.TotalCycles) / (s.spec.ClockGHz * 1e9),
	}, nil
}

// Interpreter is a sequential reference interpreter over a spatial program:
// it executes the program in strict program order with real values — the
// semantics CMMC guarantees the spatially pipelined accelerator preserves
// (paper §III-A1). Use it to unit-test what a program computes before
// worrying about how fast it runs:
//
//	it := sara.NewInterpreter(prog)
//	it.SetMem("x", inputs)
//	it.Run()
//	out, _ := it.Mem("y")
type Interpreter = interp.Exec

// NewInterpreter returns an interpreter with zeroed memories.
func NewInterpreter(prog *spatial.Program) *Interpreter {
	return interp.NewExec(prog)
}
