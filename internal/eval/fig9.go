package eval

import (
	"fmt"
	"sort"
	"strings"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/sweep"
	"sara/internal/tune"
	"sara/internal/workloads"
)

// ScalePoint is one point of the Fig 9a scalability study.
type ScalePoint struct {
	Par int
	// UsedPar is the factor that actually fit on the chip (smaller than Par
	// when resources ran out — the paper's "less performant configuration"
	// dips).
	UsedPar int
	Cycles  int64
	// Speedup is normalized to the par=1 configuration.
	Speedup float64
	// PUs is the physical-unit count of the compiled design.
	PUs int
	// DRAMBound marks configurations whose analytic bottleneck is the
	// memory roofline (rf saturates HBM at par 128 in the paper).
	DRAMBound bool
	Fit       bool
}

// Fig9a sweeps parallelization factors for the given workloads (the paper
// uses mlp for the compute-bound trend and rf for the bandwidth-bound one).
func Fig9a(names []string, pars []int, spec *arch.Spec) (map[string][]ScalePoint, string, error) {
	if len(pars) == 0 {
		pars = []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 240, 256}
	}
	cfg := core.DefaultConfig()
	cfg.Spec = spec
	cfg.SkipPlace = true
	ws := make([]*workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		ws[i] = w
	}
	// Fan the (workload, par) grid across the worker pool; each point is an
	// independent compile-and-simulate. Results land in index-addressed slots
	// and are normalized sequentially below, so output is deterministic.
	grid := make([]ScalePoint, len(names)*len(pars))
	err := sweep.ForEachIndexed(len(grid), 0, func(i int) error {
		w, par := ws[i/len(pars)], pars[i%len(pars)]
		c, used, fit, err := compileFit(w, par, spec, cfg)
		if err != nil {
			return err
		}
		r, err := analytic(c)
		if err != nil {
			return fmt.Errorf("%s par %d: %w", w.Name, par, err)
		}
		grid[i] = ScalePoint{
			Par:       par,
			UsedPar:   used,
			Cycles:    r.Cycles,
			PUs:       c.Resources().Total,
			DRAMBound: strings.Contains(r.BottleneckVU, "dram") || strings.Contains(r.BottleneckVU, "ag."),
			Fit:       fit,
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	out := map[string][]ScalePoint{}
	for wi, name := range names {
		pts := grid[wi*len(pars) : (wi+1)*len(pars)]
		base := pts[0].Cycles // speedup is normalized to the first par point
		for i := range pts {
			pts[i].Speedup = float64(base) / float64(pts[i].Cycles)
		}
		out[name] = pts
	}
	return out, renderFig9a(names, out), nil
}

func renderFig9a(names []string, data map[string][]ScalePoint) string {
	var sb strings.Builder
	sb.WriteString("Fig 9a — performance and resource scaling vs parallelization factor\n")
	for _, name := range names {
		fmt.Fprintf(&sb, "\n%s:\n", name)
		var rows [][]string
		for _, p := range data[name] {
			note := ""
			if !p.Fit {
				note = fmt.Sprintf("fell back to par %d", p.UsedPar)
			}
			if p.DRAMBound {
				if note != "" {
					note += "; "
				}
				note += "DRAM-bound"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Par),
				fmt.Sprintf("%.2fx", p.Speedup),
				fmt.Sprintf("%d", p.Cycles),
				fmt.Sprintf("%d", p.PUs),
				note,
			})
		}
		sb.WriteString(table([]string{"par", "speedup", "cycles", "PUs", "notes"}, rows))
	}
	return sb.String()
}

// TradeoffPoint is one point of the Fig 9b performance/resource space.
type TradeoffPoint struct {
	Workload string
	Par      int
	OptSet   string
	Cycles   int64
	PUs      int
	// Perf is normalized throughput (higher is better).
	Perf float64
	// Pareto marks frontier points (no other point of the workload has no
	// more PUs and at least the perf, one of them strictly).
	Pareto bool
}

// fig9bOptSets are the tuner's optimization sets (tune.NamedOptSets) the
// tradeoff study sweeps. The first is the baseline each workload's Perf is
// normalised to.
var fig9bOptSets = []string{"none", "msr+rtelm", "no-retime-mem", "all"}

// Fig9b explores the par × optimization design space and marks the Pareto
// frontier.
func Fig9b(names []string, pars []int, spec *arch.Spec) ([]TradeoffPoint, string, error) {
	if len(pars) == 0 {
		pars = []int{16, 32, 64, 128, 256}
	}
	sets := make([]tune.OptSet, len(fig9bOptSets))
	for i, name := range fig9bOptSets {
		s, err := tune.OptSetByName(name)
		if err != nil {
			return nil, "", err
		}
		sets[i] = s
	}
	ws := make([]*workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, "", err
		}
		ws[i] = w
	}
	// Fan the (workload, par, optSet) grid across the worker pool, then
	// normalize per workload against its first point sequentially.
	perW := len(pars) * len(sets)
	pts := make([]TradeoffPoint, len(names)*perW)
	err := sweep.ForEachIndexed(len(pts), 0, func(i int) error {
		w := ws[i/perW]
		par := pars[(i%perW)/len(sets)]
		os := sets[i%len(sets)]
		cfg := core.DefaultConfig()
		cfg.Spec = spec
		cfg.SkipPlace = true
		cfg.Opt = os.Opts
		c, _, _, err := compileFit(w, par, spec, cfg)
		if err != nil {
			return err
		}
		r, err := analytic(c)
		if err != nil {
			return err
		}
		pts[i] = TradeoffPoint{
			Workload: w.Name, Par: par, OptSet: os.Name,
			Cycles: r.Cycles, PUs: c.Resources().Total,
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for wi := range ws {
		w := pts[wi*perW : (wi+1)*perW]
		for i := range w {
			w[i].Perf = float64(w[0].Cycles) / float64(w[i].Cycles)
		}
		markPareto(w)
	}
	return pts, renderFig9b(pts), nil
}

// markPareto marks the points of one workload that no other point of it
// dominates in (PUs, Perf): those equal to a point on its staircase, ties
// included. The staircase holds at most one point per PU count.
func markPareto(w []TradeoffPoint) {
	ids := make([]int, len(w))
	for i := range ids {
		ids[i] = i
	}
	front := map[int]float64{}
	for _, i := range tune.Staircase(ids, func(i int) int { return w[i].PUs },
		func(i int) float64 { return -w[i].Perf }) {
		front[w[i].PUs] = w[i].Perf
	}
	for i := range w {
		perf, ok := front[w[i].PUs]
		w[i].Pareto = ok && perf == w[i].Perf
	}
}

func renderFig9b(pts []TradeoffPoint) string {
	sorted := append([]TradeoffPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Workload != sorted[j].Workload {
			return sorted[i].Workload < sorted[j].Workload
		}
		if sorted[i].PUs != sorted[j].PUs {
			return sorted[i].PUs < sorted[j].PUs
		}
		return sorted[i].Perf < sorted[j].Perf
	})
	var rows [][]string
	for _, p := range sorted {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		rows = append(rows, []string{
			p.Workload, fmt.Sprintf("%d", p.Par), p.OptSet,
			fmt.Sprintf("%d", p.PUs), fmt.Sprintf("%.2f", p.Perf), mark,
		})
	}
	return "Fig 9b — performance/resource tradeoff space (* = Pareto frontier)\n" +
		table([]string{"workload", "par", "opts", "PUs", "perf", "pareto"}, rows)
}
