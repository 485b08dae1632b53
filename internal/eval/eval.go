// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§IV) from the compiler, simulator,
// workload, and baseline packages. Each experiment returns structured rows
// plus a fixed-width text rendering, so both the benchmark suite and the
// saraeval CLI can drive it.
package eval

import (
	"fmt"
	"math"
	"strings"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// compileFit compiles the workload at the requested factor through
// core.CompileFit, halving the factor until the design fits the chip (the
// paper presents the best configuration that fits, which produces the
// resource dips of Fig 9a). It returns the compiled design, the factor
// actually used, and whether the requested factor fit.
func compileFit(w *workloads.Workload, par int, spec *arch.Spec, cfg core.Config) (*core.Compiled, int, bool, error) {
	c, used, err := core.CompileFit(par, spec, func(par int) (*core.Compiled, error) {
		c, err := core.Compile(w.Build(workloads.Params{Par: par, Scale: 1}), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s par %d: %w", w.Name, par, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	return c, used, used == par && c.Resources().Fits(spec), nil
}

// analytic runs the steady-state engine on a compiled design.
func analytic(c *core.Compiled) (*sim.Result, error) {
	return sim.Analytic(c.Design())
}

// geomean returns the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// table renders rows as a fixed-width text table.
func table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
