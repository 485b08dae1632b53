package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"sara/internal/core"
	"sara/internal/store"
)

// runConfig is what the flags select for one run of one workload.
type runConfig struct {
	Seed   int64
	Passes int // timed passes (with Trace: untraced/traced pass pairs); 0 = the workload's own count
	// Seconds is the run length the PR driver asks for (BENCHMARK.json's
	// run_seconds). It scales the workloads' fixed pass counts, which are sized
	// for nominalSeconds; measured time never decides how many passes run.
	Seconds float64
	Trace   bool
	Smoke   bool
	OutDir  string
}

const nominalSeconds = 20

// passes is how many timed passes a run of def makes.
func (cfg runConfig) passes(def workloadDef) int {
	switch {
	case cfg.Passes > 0:
		return cfg.Passes
	case cfg.Trace:
		return 2
	}
	return max(2, int(math.Round(float64(def.Passes)*cfg.Seconds/nominalSeconds)))
}

// runRecord is one run of one workload: what -o appends to a result file and
// what -compare reads. Every record carries the stamp that says where and on
// what it was measured.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Trace       bool                   `json:"trace"`
	Seed        int64                  `json:"seed"`
	Passes      int                    `json:"passes"`
	PassWallS   []float64              `json:"pass_wall_s"`  // raw wall seconds of every pass after the warm-up, in run order
	HostFactors []float64              `json:"host_factors"` // what the times of each of those passes were divided by
	Samples     int                    `json:"samples"`      // per-op latencies behind op_p50_s / op_p90_s
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Errors      []string               `json:"errors,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	GoVersion   string                 `json:"go_version"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	NProc       int                    `json:"nproc"`
	GitHead     string                 `json:"git_head"`
	CalibS      [2]float64             `json:"host_calib_s"` // start and end of the run
	TraceFile   string                 `json:"trace_file,omitempty"`
}

// runner is a workload's execution strategy: the direct Go API or a served
// cluster.
type runner interface {
	// setup does the untimed construction and cross-checks, recording
	// failures in p.
	setup(p *passResult)
	// pass runs the op list once from fresh state; a non-nil tracer makes it
	// the traced variant.
	pass(tr *tracer) *passResult
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload measures one workload: set-up (construction, cross-check, one
// full warm-up pass), then either timed passes or the traced procedure.
func runWorkload(def workloadDef, cfg runConfig) (*runRecord, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: def.Name, Trace: cfg.Trace, Seed: cfg.Seed, Passes: cfg.passes(def),
		Metrics:   map[string]metricValue{},
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GitHead: gitHead(),
	}
	rec.CalibS[0] = calibrate()

	tSetup := time.Now()
	list := def.generate(cfg.Seed, cfg.Smoke)
	var r runner
	if def.Serve {
		r = newServeBench(list, cfg.OutDir)
	} else {
		r = newDirectBench(def, list)
	}
	check := &passResult{}
	r.setup(check)
	warm := r.pass(nil)
	setupS := time.Since(tSetup).Seconds() / warm.Host

	all := []*passResult{check, warm}
	var timed, traced []*passResult
	n := rec.Passes
	if cfg.Trace {
		tr := newTracer()
		// Untraced and traced passes alternate so host drift hits both.
		for i := 0; i < n; i++ {
			timed = append(timed, r.pass(nil))
			traced = append(traced, r.pass(tr))
		}
		all = append(append(all, timed...), traced...)
		layers := finishLayers(timed, traced)
		codecLayers(layers, list, compileConfig(def.Solver), cfg.OutDir, check)
		rec.CalibS[1] = calibrate()
		layers["host.calib_s"] = (rec.CalibS[0] + rec.CalibS[1]) / 2
		for _, m := range perLayer {
			rec.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
		path, err := tr.write(cfg.OutDir, def.Name)
		if err != nil {
			return nil, err
		}
		rec.TraceFile = path
	} else {
		for i := 0; i < n; i++ {
			timed = append(timed, r.pass(nil))
		}
		all = append(all, timed...)
		rec.CalibS[1] = calibrate()
		rec.Samples = n * len(list.Ops)
		// An op's latency is its median over the passes; the percentiles are
		// over the ops of the list.
		lat := make([]float64, len(list.Ops))
		for i := range lat {
			lat[i] = medianOf(timed, func(p *passResult) float64 { return p.Ops[i].Dur })
		}
		values := map[string]float64{
			"setup_s":    setupS,
			"pass_s":     medianOf(timed, (*passResult).passS),
			"sim_s":      medianOf(timed, func(p *passResult) float64 { return p.sum(opSim) }),
			"op_p50_s":   percentile(lat, 0.50),
			"op_p90_s":   percentile(lat, 0.90),
			"alloc_mb":   medianOf(timed, func(p *passResult) float64 { return p.AllocMB }),
			"sim_cycles": float64(warm.Cycles),
			"pus":        float64(warm.PUs),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	}

	// A pass whose totals differ from the first pass's is a failure even if
	// every op answered.
	for _, p := range all[2:] {
		if p.Failed == 0 && (p.Cycles != warm.Cycles || p.PUs != warm.PUs) {
			p.fail("pass totals cycles=%d pus=%d differ from the first pass's cycles=%d pus=%d", p.Cycles, p.PUs, warm.Cycles, warm.PUs)
		}
		rec.PassWallS = append(rec.PassWallS, p.Wall.Seconds())
		rec.HostFactors = append(rec.HostFactors, p.Host)
	}
	rec.Attempted = len(list.Ops) * (len(all) - 1)
	for _, p := range all {
		rec.Failed += p.Failed
		rec.Errors = append(rec.Errors, p.Errs...)
	}
	if len(rec.Errors) > 10 {
		rec.Errors = rec.Errors[:10]
	}
	if cfg.Trace {
		rec.Metrics["failed_share"] = metricValue{float64(rec.Failed) / float64(rec.Attempted), "ratio"}
	}
	return rec, nil
}

func opDur(o *opSample) float64     { return o.Dur }
func opCompile(o *opSample) float64 { return o.Compile }
func opSim(o *opSample) float64     { return o.Sim }

func medianOf(ps []*passResult, f func(*passResult) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

// stageLayers are the compile stages core.Compile sequences; core.self_s is
// what it spends outside them.
var stageLayers = []string{
	"consistency.busy_s", "lower.busy_s", "opt.early_s", "membank.busy_s",
	"partition.busy_s", "opt.late_s", "merge.busy_s", "place.busy_s",
}

// finishLayers folds the passes of a traced run into per-layer metrics: the
// median over the passes that measured them (stage results and spans on
// traced passes, server and store counters and reported times on untraced
// ones), then what is derived from those. timed[i] ran right before traced[i].
func finishLayers(timed, traced []*passResult) map[string]float64 {
	byKey := map[string][]float64{}
	for _, p := range traced {
		spans := map[string]float64{}
		for i := range p.Ops {
			for k, v := range p.Ops[i].Spans {
				spans[k] += v
			}
		}
		for k, v := range spans {
			byKey[k] = append(byKey[k], v)
		}
	}
	for _, p := range append(slices.Clone(timed), traced...) {
		for k, v := range p.Layers {
			byKey[k] = append(byKey[k], v)
		}
	}
	L := map[string]float64{}
	for k, v := range byKey {
		L[k] = median(v)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	compile := medianOf(timed, func(p *passResult) float64 { return p.sum(opCompile) })
	// pairs is the median, over the untraced passes, of f(pass, the traced
	// pass that ran right after it): neighbours saw the same host.
	pairs := func(f func(u, t *passResult) float64) float64 {
		v := make([]float64, len(timed))
		for i := range timed {
			v[i] = f(timed[i], traced[i])
		}
		return median(v)
	}
	if _, direct := L["place.busy_s"]; direct {
		L["core.compile_s"] = compile
		L["core.self_s"] = pairs(func(u, t *passResult) float64 {
			self := u.sum(opCompile)
			for i := range t.Ops {
				for _, s := range stageLayers {
					self -= t.Ops[i].Spans[s]
				}
			}
			return self
		})
		L["sim.analytic_ratio"] = math.Exp(L["sim.analytic_ratio"] / float64(len(traced[0].Ops)))
	} else {
		L["server.compile_reported_s"] = compile
		L["server.sim_reported_s"] = medianOf(timed, func(p *passResult) float64 { return p.sum(opSim) })
		L["server.overhead_s"] = L["server.handler_s"] - L["replay.compile_s"] - L["replay.sim_s"]
	}
	L["mip.node_us"] = ratio((L["partition.busy_s"]+L["merge.busy_s"])*1e6, L["partition.mip_nodes"]+L["merge.mip_nodes"])
	L["sim.ns_per_cycle"] = ratio(L["sim.busy_s"]*1e9, L["sim.cycles"])
	L["sim.ns_per_firing"] = ratio(L["sim.busy_s"]*1e9, L["sim.fired"])
	L["store.stage_hit_ratio"] = ratio(L["store.stage_hits"], L["store.stage_hits"]+L["store.stage_misses"])
	L["server.cache_hit_ratio"] = ratio(L["server.cache_hits"], L["server.cache_hits"]+L["server.cache_misses"])
	L["trace.overhead_share"] = pairs(func(u, t *passResult) float64 { return ratio(t.sum(opDur), u.sum(opDur)) }) - 1
	return L
}

// codecLayers times the design store's codec and both its tiers on the
// compiled designs of the op list, against a store opened on a scratch
// directory: encode + Put through one handle, then Get (from disk: a second
// handle's memory tier is empty) + decode.
func codecLayers(L map[string]float64, list opList, cfg core.Config, outDir string, check *passResult) {
	dir, err := os.MkdirTemp(outDir, "codec-")
	if err != nil {
		check.fail("codec dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	w, err := store.Open(dir)
	if err != nil {
		check.fail("codec store: %v", err)
		return
	}
	keys := make([]string, len(list.Designs))
	for i, d := range list.Designs {
		c, _, _, _, err := compileAndSimulate(d, cfg)
		if err != nil {
			check.fail("%s: codec compile: %v", d, err)
			return
		}
		a := &store.Artifact{Prog: c.Prog, Spec: c.Spec, PhaseTimes: c.PhaseTimes, State: &store.Snapshot{
			Plan: c.Plan, Lowered: c.Lowered, OptStats: c.OptStats, BankStats: c.BankStats,
			PartStats: c.PartStats, Merged: c.Merged, Placement: c.Placement,
		}}
		keys[i] = fmt.Sprintf("%s-p%d-s%d", d.Workload, d.Par, d.Scale)
		var data []byte
		L["store.encode_s"] += timeIt(func() { data = store.EncodeArtifact(a) })
		L["store.put_s"] += timeIt(func() { w.Put(store.FinalStage, keys[i], data) })
		L["store.artifact_bytes"] += float64(len(data))
	}
	r, err := store.Open(dir)
	if err != nil {
		check.fail("codec store reopen: %v", err)
		return
	}
	for i, key := range keys {
		var data []byte
		var ok bool
		L["store.get_s"] += timeIt(func() { data, ok = r.Get(store.FinalStage, key) })
		if !ok {
			check.fail("%s: codec: stored artifact not found", list.Designs[i])
			continue
		}
		L["store.decode_s"] += timeIt(func() { _, err = store.DecodeArtifact(data) })
		if err != nil {
			check.fail("%s: codec decode: %v", list.Designs[i], err)
		}
	}
}

func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
