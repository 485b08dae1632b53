// Command sarasim compiles one benchmark and executes it on the cycle-level
// simulator or the analytic engine, printing runtime, bottleneck, and
// memory-system statistics.
//
// Usage:
//
//	sarasim -workload bs -par 64 [-engine auto|cycle|event|analytic]
//	        [-chip 20x20|v1] [-scale 1] [-json] [-profile trace.json] [-profile-report]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/profile"
	"sara/internal/sim"
	"sara/internal/workloads"
)

func main() {
	var (
		name    = flag.String("workload", "bs", "benchmark to run: "+strings.Join(workloads.Names(), ", "))
		par     = flag.Int("par", 16, "total parallelization factor")
		scale   = flag.Int("scale", 16, "problem-size divisor (cycle engine wants >= 16)")
		chip    = flag.String("chip", "20x20", "target chip: 20x20 (HBM2) or v1 (DDR3)")
		engine  = flag.String("engine", "auto", "execution engine: auto, cycle or event (all the event-driven cycle-level engine), or analytic")
		top     = flag.Bool("top", false, "show the busiest units")
		asJSON  = flag.Bool("json", false, "emit the result as JSON (the sarad wire encoding)")
		profOut = flag.String("profile", "", "record a timeline profile and write it as Chrome trace-event JSON to this path (load in Perfetto / chrome://tracing; cycle engine only)")
		profRep = flag.Bool("profile-report", false, "print the profile's stall-attribution and critical-path report (implies profiling)")
	)
	flag.Parse()

	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	profiling := *profOut != "" || *profRep
	var kind sim.EngineKind
	if *engine == "analytic" {
		if profiling {
			fmt.Fprintln(os.Stderr, "profiling needs a cycle-level engine; the analytic model has no timeline")
			os.Exit(1)
		}
	} else if kind, err = sim.ParseEngine(*engine); err != nil {
		fmt.Fprintf(os.Stderr, "%v, or analytic\n", err)
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	if cfg.Spec, err = arch.Preset(*chip); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog := w.Build(workloads.Params{Par: *par, Scale: *scale})
	c, err := core.Compile(prog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}

	var r *sim.Result
	var rec *profile.Recording
	switch {
	case *engine == "analytic":
		r, err = sim.Analytic(c.Design())
	case profiling:
		r, rec, err = sim.CycleProfiled(c.Design(), 0, kind)
	default:
		r, err = sim.CycleEngine(c.Design(), 0, kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}

	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
		if err := profile.WriteChromeTrace(f, rec); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
	}
	if *profRep {
		// The report goes to stderr under -json so stdout stays a single
		// machine-readable document.
		out := os.Stdout
		if *asJSON {
			out = os.Stderr
		}
		fmt.Fprint(out, profile.Analyze(rec).Render())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.JSON(cfg.Spec)); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload   %s (par %d, scale %d) on %s [%s]\n", w.Name, *par, *scale, cfg.Spec.Name, r.Engine)
	fmt.Printf("runtime    %d cycles = %.3f µs at %.1f GHz\n", r.Cycles, r.Seconds(cfg.Spec)*1e6, cfg.Spec.ClockGHz)
	if r.BottleneckVU != "" {
		fmt.Printf("bottleneck %s (II %.2f)\n", r.BottleneckVU, r.BottleneckII)
	}
	fmt.Printf("compute    %.1f%% busy across compute units\n", r.ComputeBusy*100)
	if r.FiredTotal > 0 {
		fmt.Printf("firings    %d total\n", r.FiredTotal)
	}
	if r.DRAM.TotalBytes > 0 {
		fmt.Printf("dram       %d bytes in %d requests, %.1f B/cycle achieved (peak %.1f)\n",
			r.DRAM.TotalBytes, r.DRAM.TotalReqs,
			float64(r.DRAM.TotalBytes)/float64(r.Cycles), r.DRAM.PeakBytesPerCycle)
	}
	if len(r.Stalls) > 0 {
		fmt.Printf("stalls     input-starved %d, output-blocked %d, token-wait %d (unit-cycles)\n",
			r.Stalls["input-starved"], r.Stalls["output-blocked"], r.Stalls["token-wait"])
	}
	res := c.Resources()
	fmt.Printf("resources  %d PUs (%d PCU / %d PMU / %d AG)\n", res.Total, res.PCU, res.PMU, res.AG)
	if *top && len(r.TopUnits) > 0 {
		fmt.Println("busiest units:")
		for _, u := range r.TopUnits {
			fmt.Printf("  %-28s fired %-8d busy %5.1f%%  stalls %d\n", u.Name, u.Fired, u.Busy*100, u.Stalls)
		}
	}
}
