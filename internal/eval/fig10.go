package eval

import (
	"fmt"
	"strings"

	"sara/internal/arch"
	"sara/internal/consistency"
	"sara/internal/core"
	"sara/internal/merge"
	"sara/internal/workloads"
)

// OptEffect is one bar of the Fig 10 optimization-effectiveness study: the
// slowdown and resource change when one optimization is turned off while the
// rest stay on.
type OptEffect struct {
	Workload string
	Opt      string
	// Slowdown is cycles(without)/cycles(with); >1 means the optimization
	// helps performance.
	Slowdown float64
	// ResourceRatio is PUs(without)/PUs(with); >1 means it saves resources.
	ResourceRatio float64
}

// fig10Variant produces a config with one knob disabled.
type fig10Variant struct {
	name string
	mut  func(*core.Config)
}

var fig10Variants = []fig10Variant{
	{"msr", func(c *core.Config) { c.Opt.MSR = false }},
	{"rtelm", func(c *core.Config) { c.Opt.RtElm = false }},
	{"retime", func(c *core.Config) { c.Opt.Retime = false }},
	{"retime-m", func(c *core.Config) { c.Opt.RetimeMem = false }},
	{"xbar-elm", func(c *core.Config) { c.Opt.XbarElm = false }},
	{"merge", func(c *core.Config) { c.Merge = merge.Options{DisableMerging: true} }},
	{"credit-relax", func(c *core.Config) { c.Consistency = consistency.Options{DisableCreditRelaxation: true} }},
	{"ctrl-reduction", func(c *core.Config) { c.Consistency.DisableReduction = true }},
}

// Fig10 measures each optimization's effectiveness on the given workloads at
// the given factor.
func Fig10(names []string, par int, spec *arch.Spec) ([]OptEffect, string, error) {
	var out []OptEffect
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		baseCfg := core.DefaultConfig()
		baseCfg.Spec = spec
		baseCfg.SkipPlace = true
		baseC, used, _, err := compileFit(w, par, spec, baseCfg)
		if err != nil {
			return nil, "", err
		}
		baseR, err := analytic(baseC)
		if err != nil {
			return nil, "", err
		}
		basePUs := baseC.Resources().Total

		for _, v := range fig10Variants {
			cfg := core.DefaultConfig()
			cfg.Spec = spec
			cfg.SkipPlace = true
			v.mut(&cfg)
			prog := w.Build(workloads.Params{Par: used, Scale: 1})
			c, err := core.Compile(prog, cfg)
			if err != nil {
				// Some ablations legitimately fail to compile (e.g. banking
				// is structural); record an infinite penalty marker.
				out = append(out, OptEffect{Workload: name, Opt: v.name, Slowdown: -1, ResourceRatio: -1})
				continue
			}
			r, err := analytic(c)
			if err != nil {
				return nil, "", err
			}
			out = append(out, OptEffect{
				Workload:      name,
				Opt:           v.name,
				Slowdown:      float64(r.Cycles) / float64(baseR.Cycles),
				ResourceRatio: float64(c.Resources().Total) / float64(basePUs),
			})
		}
	}
	return out, renderFig10(out), nil
}

func renderFig10(effects []OptEffect) string {
	var rows [][]string
	for _, e := range effects {
		if e.Slowdown < 0 {
			rows = append(rows, []string{e.Workload, e.Opt, "compile-fail", "-"})
			continue
		}
		rows = append(rows, []string{
			e.Workload, e.Opt,
			fmt.Sprintf("%.2fx", e.Slowdown),
			fmt.Sprintf("%.2fx", e.ResourceRatio),
		})
	}
	var sb strings.Builder
	sb.WriteString("Fig 10 — optimization effectiveness (disable one, keep the rest)\n")
	sb.WriteString(table([]string{"workload", "disabled", "slowdown", "resource ratio"}, rows))
	return sb.String()
}

// CMMCStats reports the control-reduction analysis effect (paper §III-A3):
// synchronization streams before and after dependency-graph reduction.
type CMMCStats struct {
	Workload     string
	RawTokens    int
	Reduced      int
	ReductionPct float64
}

// Fig10Tokens measures the token-count reduction across the suite.
func Fig10Tokens(names []string, par int, spec *arch.Spec) ([]CMMCStats, string, error) {
	var out []CMMCStats
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		prog := w.Build(workloads.Params{Par: par, Scale: 1})
		plan := consistency.Analyze(prog, consistency.Options{})
		raw, red := plan.RawTokenCount(), plan.TokenCount()
		pct := 0.0
		if raw > 0 {
			pct = 100 * float64(raw-red) / float64(raw)
		}
		out = append(out, CMMCStats{Workload: name, RawTokens: raw, Reduced: red, ReductionPct: pct})
	}
	var rows [][]string
	for _, s := range out {
		rows = append(rows, []string{
			s.Workload, fmt.Sprintf("%d", s.RawTokens), fmt.Sprintf("%d", s.Reduced),
			fmt.Sprintf("%.0f%%", s.ReductionPct),
		})
	}
	return out, "CMMC control-reduction analysis — synchronization streams\n" +
		table([]string{"workload", "constructed", "after reduction", "removed"}, rows), nil
}
