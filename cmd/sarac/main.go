// Command sarac compiles one benchmark through the full SARA flow and prints
// the compiled design's statistics: CMMC synchronization streams, pass
// effects, resource usage, and per-phase compile times.
//
// Usage:
//
//	sarac -workload mlp -par 64 [-chip 20x20|v1] [-scale 1] [-solver]
//	      [-store DIR] [-dump]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/store"
	"sara/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "mlp", "benchmark to compile: "+strings.Join(workloads.Names(), ", "))
		par      = flag.Int("par", 16, "total parallelization factor")
		scale    = flag.Int("scale", 1, "problem-size divisor (1 = paper scale)")
		chip     = flag.String("chip", "20x20", "target chip: 20x20 (HBM2) or v1 (DDR3)")
		solver   = flag.Bool("solver", false, "use MIP solver partitioning (15% gap)")
		storeDir = flag.String("store", "", "design-store directory: recompiles reuse every pipeline stage whose input is unchanged (empty = cold compile)")
		dump     = flag.Bool("dump", false, "dump the virtual-unit dataflow graph")
		dot      = flag.Bool("dot", false, "emit the dataflow graph in Graphviz DOT format")
	)
	flag.Parse()

	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig()
	if cfg.Spec, err = arch.Preset(*chip); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *solver {
		cfg.UseSolver(partition.DefaultGap)
	}

	if *storeDir != "" {
		memo, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sarac: design store disabled: %v\n", err)
		} else {
			defer memo.Close()
			cfg.Memo = memo
		}
	}

	prog := w.Build(workloads.Params{Par: *par, Scale: *scale})
	c, err := core.Compile(prog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}

	res := c.Resources()
	fmt.Printf("workload  %s (par %d, scale %d) on %s\n", w.Name, *par, *scale, cfg.Spec.Name)
	fmt.Printf("virtual   %d VUs, %d CMMC streams (%d before reduction)\n",
		res.VUs, c.Plan.TokenCount(), c.Plan.RawTokenCount())
	fmt.Printf("physical  %d PUs: %d PCU, %d PMU, %d AG (chip: %d/%d/%d)\n",
		res.Total, res.PCU, res.PMU, res.AG, cfg.Spec.NumPCU, cfg.Spec.NumPMU, cfg.Spec.NumAG)
	fmt.Printf("passes    msr=%d rtelm=%d retime=%d xbar-elm=%d banks=%d merges=%d splits=%d\n",
		c.OptStats.MSRConverted, c.OptStats.RouteThroughs, c.OptStats.RetimeVUs,
		c.OptStats.XbarEliminated, c.BankStats.BanksCreated, c.BankStats.MergeVUs, c.PartStats.SplitVUs)
	if n := c.MIPNodes(); n > 0 {
		fmt.Printf("solver    %d branch-and-bound nodes explored\n", n)
	}
	if c.StageHits != nil {
		var restored, ran []string
		for _, st := range core.StageNames {
			hit, ok := c.StageHits[st]
			switch {
			case !ok:
			case hit:
				restored = append(restored, st)
			default:
				ran = append(ran, st)
			}
		}
		fmt.Printf("store     restored %d/%d stages", len(restored), len(restored)+len(ran))
		if len(restored) > 0 {
			fmt.Printf(" (%s)", strings.Join(restored, ", "))
		}
		fmt.Println()
	}
	var phases []string
	for p := range c.PhaseTimes {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Printf("compile   %v total (", c.CompileTime().Round(1e6))
	for i, p := range phases {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %v", p, c.PhaseTimes[p].Round(1e6))
	}
	fmt.Println(")")
	if *dump {
		fmt.Println()
		fmt.Print(c.Lowered.G.Dump())
	}
	if *dot {
		fmt.Println()
		fmt.Print(c.Lowered.G.DOT())
	}
}
