// Command saratune runs the design-space autotuner: it sweeps
// parallelization factors, optimization flags, and arch-spec knobs for one
// workload, prunes candidates that do not fit their chip or whose cycle
// floor (sim.Floor) a validated point no larger already meets, validates the
// survivors on the cycle engine, and prints the cycles-vs-resources Pareto
// front with per-point bottleneck attribution. -points prints every point's
// floor= and cycles= beside its status.
//
// Usage:
//
//	saratune -workload rf -pars 16,32,64,128 [-opts all,none] [-channels 8,16]
//	         [-pcu ...] [-pmu ...] [-ag ...] [-rows ...] [-cols ...] [-depths ...]
//	         [-chip 20x20|v1] [-scale 1] [-workers 0] [-max-points 1024]
//	         [-store DIR] [-o tune.json] [-csv tune.csv]
//
// Sweeps compile through the incremental design store, so candidates that
// share pipeline prefixes recompile almost for free; pass -store to persist
// it and make repeat searches nearly instant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sara/internal/arch"
	"sara/internal/store"
	"sara/internal/tune"
	"sara/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "", "benchmark to tune: "+strings.Join(workloads.Names(), ", "))
		scale    = flag.Int("scale", 16, "problem-size divisor (the cycle engine validates finalists, so keep it moderate)")
		chip     = flag.String("chip", "20x20", "seed chip the space's knobs override: 20x20 (HBM2) or v1 (DDR3)")
		pars     = flag.String("pars", "", "comma-separated parallelization factors (default: the workload's paper par)")
		opts     = flag.String("opts", "all", "comma-separated optimization sets: "+optSetNames())
		pcu      = flag.String("pcu", "", "comma-separated NumPCU values (empty = seed value)")
		pmu      = flag.String("pmu", "", "comma-separated NumPMU values")
		ag       = flag.String("ag", "", "comma-separated NumAG values")
		channels = flag.String("channels", "", "comma-separated DRAM channel counts")
		rows     = flag.String("rows", "", "comma-separated grid row counts")
		cols     = flag.String("cols", "", "comma-separated grid column counts")
		depths   = flag.String("depths", "", "comma-separated stream buffer depths")
		workers  = flag.Int("workers", 0, "candidate-processing goroutines (0 = GOMAXPROCS; results identical at any count)")
		maxPts   = flag.Int("max-points", 0, "cap on the enumerated space (0 = 1024)")
		basePar  = flag.Int("baseline-par", 0, "reference configuration's par (0 = the workload default)")
		storeDir = flag.String("store", "", "persist the design store in this directory (default: in-memory for this run)")
		jsonOut  = flag.String("o", "", "write the full result as JSON to this path")
		csvOut   = flag.String("csv", "", "write every point as CSV to this path")
		allPts   = flag.Bool("points", false, "print every explored point, not just the front")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "saratune: -workload is required")
		flag.Usage()
		os.Exit(2)
	}

	space := tune.Space{}
	var err error
	if space.Pars, err = parseInts("pars", *pars); err != nil {
		fatal(err)
	}
	if space.Opts, err = tune.ParseOptSets(*opts); err != nil {
		fatal(err)
	}
	for _, axis := range []struct {
		name string
		flag string
		dst  *[]int
	}{
		{"pcu", *pcu, &space.NumPCU},
		{"pmu", *pmu, &space.NumPMU},
		{"ag", *ag, &space.NumAG},
		{"channels", *channels, &space.DRAMChannels},
		{"rows", *rows, &space.Rows},
		{"cols", *cols, &space.Cols},
		{"depths", *depths, &space.StreamDepths},
	} {
		if *axis.dst, err = parseInts(axis.name, axis.flag); err != nil {
			fatal(err)
		}
	}

	o := tune.Options{
		Workload:    *name,
		Scale:       *scale,
		Space:       space,
		Workers:     *workers,
		MaxPoints:   *maxPts,
		BaselinePar: *basePar,
		Base:        arch.SpecJSON{Preset: *chip},
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		o.Store = st
	}

	r, err := tune.Run(o)
	if err != nil {
		fatal(err)
	}
	fmt.Print(r.RenderFront())
	fmt.Printf("pruned fraction: %.0f%% of explored points skipped without a cycle simulation; stage-cache hit rate %.0f%%; wall %dms\n",
		100*r.Stats.PrunedFraction(), 100*r.Stats.StageHitRate, r.Stats.WallMS)
	if best := r.BestAtBaseArch(); best != nil && r.Baseline.Cycles > 0 {
		fmt.Printf("best seed-arch point: %s — %d cycles, %.2fx vs baseline par=%d\n",
			best.Point.Label(), best.Cycles, float64(r.Baseline.Cycles)/float64(best.Cycles), r.Baseline.Par)
	}
	if *allPts {
		for i := range r.Points {
			p := &r.Points[i]
			fmt.Printf("%3d  %-9s  %-40s  floor=%d cycles=%d total=%d\n",
				p.Point.ID, p.Status, p.Point.Label(), p.FloorCycles, p.Cycles, p.Total)
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, r.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, r.WriteCSV); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func optSetNames() string {
	names := make([]string, len(tune.NamedOptSets))
	for i, s := range tune.NamedOptSets {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

func parseInts(name, list string) ([]int, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("saratune: -%s: %q is not an integer", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
