// Package core is SARA's compilation driver: it sequences the passes of the
// paper's Fig 3 flow — CMMC consistency analysis, imperative-to-dataflow
// lowering, graph-shrinking optimizations, memory partitioning, compute
// partitioning, retiming and crossbar optimizations, global merging, and
// placement — into one Compile call, and reports per-phase statistics and
// timings.
package core

import (
	"fmt"
	"time"

	"sara/internal/arch"
	"sara/internal/consistency"
	"sara/internal/dfg"
	"sara/internal/interp"
	"sara/internal/ir"
	"sara/internal/lower"
	"sara/internal/membank"
	"sara/internal/merge"
	"sara/internal/opt"
	"sara/internal/partition"
	"sara/internal/place"
	"sara/internal/sim"
	"sara/internal/store"
)

// Config selects the target and per-pass options.
type Config struct {
	Spec        *arch.Spec
	Consistency consistency.Options
	Opt         opt.Options
	Partition   partition.ApplyOptions
	Membank     membank.Options
	Merge       merge.Options
	Place       place.Options
	// SkipPlace leaves the design unplaced; the simulator then charges a
	// fixed default stream distance. Useful for fast sweeps.
	SkipPlace bool
	// Memo, when non-nil, switches Compile to the incremental driver: each
	// stage's input is content-addressed and stage results are memoized
	// through the design store, so a recompile re-runs only the stages whose
	// inputs actually changed. Output is bit-identical to Memo == nil; only
	// PhaseTimes and StageHits differ.
	Memo *store.Store
}

// DefaultConfig returns the paper's default compiler configuration: all
// optimizations on, traversal-based partitioning and merging, the 20×20 HBM2
// chip.
func DefaultConfig() Config {
	return Config{
		Spec: arch.SARA20x20(),
		Opt:  opt.All(),
	}
}

// Compiled is a fully compiled design plus per-pass reports.
type Compiled struct {
	Prog      *ir.Program
	Plan      *consistency.Plan
	Lowered   *lower.Result
	OptStats  opt.Stats
	BankStats *membank.Stats
	PartStats *partition.ApplyStats
	Merged    *merge.Result
	Placement *place.Placement
	Spec      *arch.Spec

	// PhaseTimes records wall-clock per compiler phase. An incremental
	// compile has entries only for the stages that ran, plus "restore" for
	// the snapshot-decode time of the reused prefix.
	PhaseTimes map[string]time.Duration
	// StageHits, set only by incremental compiles (Config.Memo), records per
	// stage whether its result was restored from the design store (true) or
	// recomputed (false).
	StageHits map[string]bool
}

// Compile runs the full flow on a validated program.
func Compile(prog *ir.Program, cfg Config) (*Compiled, error) {
	if cfg.Spec == nil {
		cfg.Spec = arch.SARA20x20()
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid program: %w", err)
	}
	if err := interp.CheckBounds(prog); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Compiled{Prog: prog, Spec: cfg.Spec, PhaseTimes: map[string]time.Duration{}}
	steps := c.steps(prog, &cfg)
	if cfg.Memo != nil {
		pc := &progCtx{
			prog:        prog,
			digestPar:   store.ProgramDigest(prog, true),
			digestNoPar: store.ProgramDigest(prog, false),
		}
		if err := compileIncremental(pc, &cfg, steps, c); err != nil {
			return nil, err
		}
		return c, nil
	}
	for _, st := range steps {
		if err := c.run(st); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// step is one stage of the compile pipeline: its StageNames entry and the
// pass it runs on the Compiled being built.
type step struct {
	name string
	run  func() error
}

// steps lists the pipeline stages of compiling prog under cfg into c, in
// StageNames order. The cold driver runs them all; the incremental one runs
// those past the deepest snapshot it restores.
func (c *Compiled) steps(prog *ir.Program, cfg *Config) []step {
	steps := []step{
		{"consistency", func() error {
			c.Plan = consistency.Analyze(prog, cfg.Consistency)
			return nil
		}},
		{"lower", func() error {
			var err error
			c.Lowered, err = lower.Lower(prog, c.Plan, cfg.Spec, lower.Options{})
			return err
		}},
		{"opt-early", func() error {
			return opt.ApplyEarly(c.Lowered.G, cfg.Opt, &c.OptStats)
		}},
		{"membank", func() error {
			var err error
			c.BankStats, err = membank.Apply(c.Lowered.G, cfg.Spec, cfg.Membank)
			return err
		}},
		{"partition", func() error {
			var err error
			c.PartStats, err = partition.Apply(c.Lowered.G, cfg.Partition)
			return err
		}},
		{"opt-late", func() error {
			return opt.ApplyLate(c.Lowered.G, cfg.Spec, cfg.Opt, &c.OptStats)
		}},
		{"merge", func() error {
			var err error
			c.Merged, err = merge.Merge(c.Lowered.G, cfg.Spec, cfg.Merge)
			return err
		}},
	}
	if !cfg.SkipPlace {
		steps = append(steps, step{"place", func() error {
			var err error
			c.Placement, err = place.Place(c.Lowered.G, c.Merged, cfg.Spec, cfg.Place)
			return err
		}})
	}
	return steps
}

// run executes st, records its wall time in PhaseTimes — failed or not — and
// names the stage in its error.
func (c *Compiled) run(st step) error {
	t0 := time.Now()
	err := st.run()
	c.PhaseTimes[st.name] = time.Since(t0)
	if err != nil {
		return fmt.Errorf("core: %s: %w", st.name, err)
	}
	return nil
}

// Design returns the simulator input for the compiled program.
func (c *Compiled) Design() *sim.Design {
	return &sim.Design{
		G:         c.Lowered.G,
		Spec:      c.Spec,
		Merge:     c.Merged,
		Placement: c.Placement,
	}
}

// Resources summarizes the physical-unit usage of the compiled design.
type Resources struct {
	PCU, PMU, AG int
	Total        int
	// VUs is the virtual-unit count before merging.
	VUs int
	// TokenStreams is the number of CMMC synchronization streams.
	TokenStreams int
}

// Resources reports the compiled design's footprint.
func (c *Compiled) Resources() Resources {
	r := Resources{VUs: len(c.Lowered.G.LiveVUs())}
	if c.Merged != nil {
		r.PCU, r.PMU, r.AG = c.Merged.Counts()
		r.Total = c.Merged.Total()
	}
	for _, e := range c.Lowered.G.LiveEdges() {
		if e.Kind == dfg.EToken {
			r.TokenStreams++
		}
	}
	return r
}

// CompileTime returns the total wall-clock compile time.
func (c *Compiled) CompileTime() time.Duration {
	var t time.Duration
	for _, d := range c.PhaseTimes {
		t += d
	}
	return t
}

// MIPNodes totals the branch-and-bound nodes explored across the compile:
// the solver-based compute-partitioning splits plus the solver-packed merge
// groups. Zero when traversal algorithms ran.
func (c *Compiled) MIPNodes() int {
	n := 0
	if c.PartStats != nil {
		n += c.PartStats.MIPNodes
	}
	if c.Merged != nil {
		n += c.Merged.MIPNodes
	}
	return n
}
