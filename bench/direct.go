package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sara/internal/consistency"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/lower"
	"sara/internal/membank"
	"sara/internal/merge"
	"sara/internal/opt"
	"sara/internal/partition"
	"sara/internal/place"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// opSample is what one op of one pass measured, in seconds. Spans holds the
// op's time per layer metric on a traced pass.
type opSample struct {
	Dur     float64 // the op's latency
	Compile float64
	Sim     float64
	Spans   map[string]float64
}

// passResult is what one pass over the op list measured.
type passResult struct {
	// Wall is the raw wall time of the timed list with the host meter taken
	// out. Direct: first op's start to last op's end, less the readings in
	// between. Serve: the time a client spent in requests, mean of the two.
	Wall time.Duration
	// Host is what the times in Ops have been divided by: how many times
	// slower than nominal the reference kernel ran around the pass (host.go).
	Host    float64
	Ops     []opSample // indexed like the op list
	AllocMB float64    // TotalAlloc delta over the timed list
	Cycles  int64
	PUs     int
	Failed  int
	Errs    []string
	// Layers holds the pass's per-layer counts: what the traced replay read
	// off each stage's result, and a serve pass's server and store counter
	// deltas.
	Layers map[string]float64
}

func (p *passResult) fail(format string, args ...any) {
	p.Failed++
	if len(p.Errs) < 5 {
		p.Errs = append(p.Errs, fmt.Sprintf(format, args...))
	}
}

// normalise divides every time the pass measured by its host factor.
func (p *passResult) normalise() {
	for i := range p.Ops {
		s := &p.Ops[i]
		s.Dur /= p.Host
		s.Compile /= p.Host
		s.Sim /= p.Host
		for k := range s.Spans {
			s.Spans[k] /= p.Host
		}
	}
}

// passS is the pass's wall time in host-normalised seconds.
func (p *passResult) passS() float64 { return p.Wall.Seconds() / p.Host }

// sum adds f over the ops of the pass.
func (p *passResult) sum(f func(*opSample) float64) float64 {
	t := 0.0
	for i := range p.Ops {
		t += f(&p.Ops[i])
	}
	return t
}

// outcome is the quality-of-result pair every op is checked on.
type outcome struct {
	Cycles int64
	PUs    int
}

// memMark puts a pass in fresh state and starts its allocation measurement:
// two collections, because a sync.Pool (lp's tableau pool) survives one.
func memMark() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func allocMBSince(mark uint64) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-mark) / (1 << 20)
}

// compileConfig is the compiler configuration of a workload's direct path:
// the paper's default (traversal algorithms, placement on), or MIP partition
// and merge with a node cap so the cap — never the wall clock — ends every
// search and the compiled design does not depend on host load.
func compileConfig(solver bool) core.Config {
	cfg := core.DefaultConfig()
	if solver {
		cfg.Partition.Algo = partition.AlgoSolver
		cfg.Partition.Gap = 0.15
		cfg.Partition.MaxNodes = 60
		cfg.Partition.TimeLimit = 10 * time.Minute
		cfg.Merge.Algo = partition.AlgoSolver
		cfg.Merge.Gap = 0.15
		cfg.Merge.MaxNodes = 60
		cfg.Merge.TimeLimit = 10 * time.Minute
		// The serial search: the speculative pool (Workers 0) finds the same
		// design but does a different amount of work every run.
		cfg.Partition.Workers = 1
		cfg.Merge.Workers = 1
	}
	return cfg
}

func buildProgram(d design) (*ir.Program, error) {
	w, err := workloads.ByName(d.Workload)
	if err != nil {
		return nil, err
	}
	return w.Build(workloads.Params{Par: d.Par, Scale: d.Scale}), nil
}

// compileAndSimulate is the direct API path of one op: what the timed direct
// passes run, and the reference the serve workloads are cross-checked on.
func compileAndSimulate(d design, cfg core.Config) (c *core.Compiled, res *sim.Result, compile, simulate time.Duration, err error) {
	prog, err := buildProgram(d)
	if err != nil {
		return
	}
	t1 := time.Now()
	if c, err = core.Compile(prog, cfg); err != nil {
		return
	}
	t2 := time.Now()
	compile = t2.Sub(t1)
	res, err = sim.CycleEngine(c.Design(), 0, sim.EngineAuto)
	simulate = time.Since(t2)
	return
}

// directBench runs a workload through the Go API, no server involved.
type directBench struct {
	list   opList
	cfg    core.Config
	expect []outcome // per design, from the first pass; later passes must repeat it
}

func newDirectBench(def workloadDef, list opList) *directBench {
	return &directBench{list: list, cfg: compileConfig(def.Solver), expect: make([]outcome, len(list.Designs))}
}

func (b *directBench) setup(*passResult) {}

func (b *directBench) check(p *passResult, o op, got outcome) {
	p.Cycles += got.Cycles
	p.PUs += got.PUs
	d := o.Design
	if b.expect[d] == (outcome{}) {
		b.expect[d] = got
	} else if b.expect[d] != got {
		p.fail("%s: cycles/pus %v differ from the first pass's %v", b.list.Designs[d], got, b.expect[d])
	}
}

func (b *directBench) pass(tr *tracer) *passResult {
	p := &passResult{Layers: map[string]float64{}, Ops: make([]opSample, len(b.list.Ops))}
	var host hostMeter
	reads := perGap(b.list.HostReadings, len(b.list.Ops)+1)
	mark := memMark()
	host.read(reads)
	outside := host.sum
	t0 := time.Now()
	for i, o := range b.list.Ops {
		if i > 0 {
			host.read(reads)
		}
		if tr != nil {
			b.tracedOp(p, tr, i, o)
			continue
		}
		s0 := time.Now()
		c, res, compile, simulate, err := compileAndSimulate(b.list.Designs[o.Design], b.cfg)
		p.Ops[i] = opSample{Dur: time.Since(s0).Seconds(), Compile: compile.Seconds(), Sim: simulate.Seconds()}
		if err != nil {
			p.fail("%s: %v", b.list.Designs[o.Design], err)
			continue
		}
		b.check(p, o, outcome{res.Cycles, c.Resources().Total})
	}
	p.Wall = time.Since(t0) - time.Duration((host.sum-outside)*float64(time.Second))
	p.AllocMB = allocMBSince(mark)
	host.read(reads)
	p.Host = host.mean() / kernelNominalS
	p.normalise()
	return p
}

// tracedOp replays the cold pipeline of core.Compile stage by stage with a
// span around each call into a layer, then simulates, and holds the replay to
// the timed path's cycles and pus. sim.Analytic runs under its own span and
// is left out of the op's latency: the timed path does not call it.
func (b *directBench) tracedOp(p *passResult, tr *tracer, i int, o op) {
	d := b.list.Designs[o.Design]
	L := p.Layers
	cfg := b.cfg
	root := tr.begin(0, i, "op "+d.String())
	defer tr.end(root)

	s := &p.Ops[i]
	s.Spans = map[string]float64{}
	var err error
	stage := func(layer, name string, f func()) {
		dur := tr.do(root, i, name, f).Seconds()
		s.Dur += dur
		s.Spans[layer] += dur
	}

	c := &core.Compiled{Spec: cfg.Spec}
	stage("workloads.build_s", "workloads.Build", func() { c.Prog, err = buildProgram(d) })
	if err == nil {
		stage("consistency.busy_s", "consistency.Analyze", func() { c.Plan = consistency.Analyze(c.Prog, cfg.Consistency) })
		L["consistency.tokens_raw"] += float64(c.Plan.RawTokenCount())
		L["consistency.tokens_reduced"] += float64(c.Plan.TokenCount())
		stage("lower.busy_s", "lower.Lower", func() { c.Lowered, err = lower.Lower(c.Prog, c.Plan, cfg.Spec, lower.Options{}) })
	}
	if err == nil {
		L["lower.vus"] += float64(len(c.Lowered.G.LiveVUs()))
		L["lower.edges"] += float64(len(c.Lowered.G.LiveEdges()))
		stage("opt.early_s", "opt.ApplyEarly", func() { err = opt.ApplyEarly(c.Lowered.G, cfg.Opt, &c.OptStats) })
	}
	if err == nil {
		stage("membank.busy_s", "membank.Apply", func() { c.BankStats, err = membank.Apply(c.Lowered.G, cfg.Spec, cfg.Membank) })
	}
	if err == nil {
		L["membank.banks_created"] += float64(c.BankStats.BanksCreated)
		stage("partition.busy_s", "partition.Apply", func() { c.PartStats, err = partition.Apply(c.Lowered.G, cfg.Partition) })
	}
	if err == nil {
		L["partition.new_vus"] += float64(c.PartStats.NewVUs)
		L["partition.mip_nodes"] += float64(c.PartStats.MIPNodes)
		stage("opt.late_s", "opt.ApplyLate", func() { err = opt.ApplyLate(c.Lowered.G, cfg.Spec, cfg.Opt, &c.OptStats) })
	}
	if err == nil {
		L["opt.route_throughs"] += float64(c.OptStats.RouteThroughs)
		L["opt.retime_vus"] += float64(c.OptStats.RetimeVUs)
		stage("merge.busy_s", "merge.Merge", func() { c.Merged, err = merge.Merge(c.Lowered.G, cfg.Spec, cfg.Merge) })
	}
	if err == nil {
		L["merge.mip_nodes"] += float64(c.Merged.MIPNodes)
		L["merge.pus"] += float64(c.Merged.Total())
		stage("place.busy_s", "place.Place", func() { c.Placement, err = place.Place(c.Lowered.G, c.Merged, cfg.Spec, cfg.Place) })
	}
	var res *sim.Result
	if err == nil {
		for _, e := range c.Lowered.G.LiveEdges() {
			L["place.hops_total"] += float64(c.Placement.EdgeHops(c.Merged, e.Src, e.Dst))
		}
		stage("sim.busy_s", "sim.CycleEngine", func() { res, err = sim.CycleEngine(c.Design(), 0, sim.EngineAuto) })
	}
	if err != nil {
		p.fail("%s: traced replay: %v", d, err)
		return
	}
	addSimLayers(L, res.Engine, res.Cycles, res.FiredTotal, res.Stalls, res.DRAM.TotalBytes, res.DRAM.StallCycles)
	b.check(p, o, outcome{res.Cycles, c.Resources().Total})

	var ana *sim.Result
	s.Spans["sim.analytic_s"] = tr.do(root, i, "sim.Analytic", func() { ana, err = sim.Analytic(c.Design()) }).Seconds()
	if err != nil {
		p.fail("%s: analytic: %v", d, err)
		return
	}
	// Σ log ratio; finishLayers turns it into the geometric mean.
	L["sim.analytic_ratio"] += math.Log(float64(ana.Cycles) / float64(res.Cycles))
}

// addSimLayers folds one cycle-engine result into the sim.* and dram.*
// sums; the serve workloads feed it the same fields off the wire.
func addSimLayers(L map[string]float64, engine string, cycles, fired int64, stalls map[string]int64, dramBytes, dramStall int64) {
	L["sim.cycles"] += float64(cycles)
	L["sim.fired"] += float64(fired)
	L["sim.stall_token_cycles"] += float64(stalls["token-wait"])
	L["sim.stall_in_cycles"] += float64(stalls["input-starved"])
	L["sim.stall_out_cycles"] += float64(stalls["output-blocked"])
	if engine == "dense" {
		L["sim.auto_dense_ops"]++
	} else {
		L["sim.auto_event_ops"]++
	}
	L["dram.bytes"] += float64(dramBytes)
	L["dram.stall_cycles"] += float64(dramStall)
}
