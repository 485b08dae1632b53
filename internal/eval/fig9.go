package eval

import (
	"fmt"
	"sort"
	"strings"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/opt"
	"sara/internal/sweep"
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
	// Pareto marks frontier points (no other point is at least as fast with
	// fewer PUs).
	Pareto bool
}

// optSets are the optimization configurations of the tradeoff study.
var optSets = []struct {
	name string
	opt  opt.Options
}{
	{"none", opt.Options{Retime: true}}, // retiming stays: unbuffered graphs just stall
	{"msr+rtelm", opt.Options{MSR: true, RtElm: true, Retime: true}},
	{"all-retimeM", opt.Options{MSR: true, RtElm: true, Retime: true, XbarElm: true}},
	{"all", opt.All()},
}

// Fig9b explores the par × optimization design space and marks the Pareto
// frontier.
func Fig9b(names []string, pars []int, spec *arch.Spec) ([]TradeoffPoint, string, error) {
	if len(pars) == 0 {
		pars = []int{16, 32, 64, 128, 256}
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
	perW := len(pars) * len(optSets)
	pts := make([]TradeoffPoint, len(names)*perW)
	err := sweep.ForEachIndexed(len(pts), 0, func(i int) error {
		w := ws[i/perW]
		par := pars[(i%perW)/len(optSets)]
		os := optSets[i%len(optSets)]
		cfg := core.DefaultConfig()
		cfg.Spec = spec
		cfg.SkipPlace = true
		cfg.Opt = os.opt
		c, _, _, err := compileFit(w, par, spec, cfg)
		if err != nil {
			return err
		}
		r, err := analytic(c)
		if err != nil {
			return err
		}
		pts[i] = TradeoffPoint{
			Workload: w.Name, Par: par, OptSet: os.name,
			Cycles: r.Cycles, PUs: c.Resources().Total,
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for wi := range ws {
		base := pts[wi*perW].Cycles
		for i := wi * perW; i < (wi+1)*perW; i++ {
			pts[i].Perf = float64(base) / float64(pts[i].Cycles)
		}
	}
	markPareto(pts)
	return pts, renderFig9b(pts), nil
}

// markPareto marks, per workload, points not dominated in (PUs, Perf).
func markPareto(pts []TradeoffPoint) {
	byW := map[string][]int{}
	for i, p := range pts {
		byW[p.Workload] = append(byW[p.Workload], i)
	}
	for _, idxs := range byW {
		for _, i := range idxs {
			dominated := false
			for _, j := range idxs {
				if i == j {
					continue
				}
				if pts[j].PUs <= pts[i].PUs && pts[j].Perf >= pts[i].Perf &&
					(pts[j].PUs < pts[i].PUs || pts[j].Perf > pts[i].Perf) {
					dominated = true
					break
				}
			}
			pts[i].Pareto = !dominated
		}
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
