package eval

import (
	"fmt"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/gpu"
	"sara/internal/ir"
	"sara/internal/pc"
	"sara/internal/sim"
	"sara/internal/sweep"
	"sara/internal/workloads"
)

// Table4Row characterizes one benchmark (paper Table IV).
type Table4Row struct {
	Name, Domain, Control string
	Blocks, Loops, Depth  int
	Dynamic               bool
	MemoryBound           bool
	DefaultPar            int
}

// Table4 summarizes the benchmark suite.
func Table4() ([]Table4Row, string) {
	var out []Table4Row
	for _, w := range workloads.All() {
		prog := w.Build(workloads.Params{Par: 1, Scale: 1})
		row := Table4Row{
			Name: w.Name, Domain: w.Domain, Control: w.Control,
			MemoryBound: w.MemoryBound, DefaultPar: w.DefaultPar,
		}
		prog.Walk(func(c *ir.Ctrl) {
			switch {
			case c.Kind == ir.CtrlBlock:
				row.Blocks++
			case c.IsLoop():
				row.Loops++
				if c.Kind != ir.CtrlLoop {
					row.Dynamic = true
				}
			}
			if d := prog.Depth(c.ID); d > row.Depth {
				row.Depth = d
			}
		})
		out = append(out, row)
	}
	var rows [][]string
	for _, r := range out {
		dyn, mb := "", ""
		if r.Dynamic {
			dyn = "yes"
		}
		if r.MemoryBound {
			mb = "yes"
		}
		rows = append(rows, []string{
			r.Name, r.Domain,
			fmt.Sprintf("%d", r.Blocks), fmt.Sprintf("%d", r.Loops), fmt.Sprintf("%d", r.Depth),
			dyn, mb, fmt.Sprintf("%d", r.DefaultPar),
		})
	}
	return out, "Table IV — benchmark characteristics\n" +
		table([]string{"kernel", "domain", "blocks", "loops", "depth", "dyn-ctrl", "mem-bound", "best par"}, rows)
}

// Table5Row compares SARA against the vanilla Plasticine compiler on one
// kernel (paper Table V: same Plasticine configuration, DDR3 DRAM).
type Table5Row struct {
	Name        string
	PCCycles    int64
	SARACycles  int64
	Speedup     float64
	SARAPar     int
	MemoryBound bool
}

// table5Kernels are the compute-bound kernels §IV-C focuses on, plus the two
// bandwidth-bound ones that show the saturation ceiling.
var table5Kernels = []string{"kmeans", "gda", "logreg", "sgd"}

// Table5 runs the vanilla-compiler comparison.
func Table5() ([]Table5Row, float64, string, error) {
	spec := arch.PlasticineV1()
	// Each kernel's two compile-and-simulate runs (vanilla PC and SARA) are
	// independent; fan them across the worker pool into index-addressed rows.
	out := make([]Table5Row, len(table5Kernels))
	err := sweep.ForEachIndexed(len(table5Kernels), 0, func(i int) error {
		name := table5Kernels[i]
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}

		// Vanilla compiler: outer par clamped, no banking, hierarchical FSM
		// handshake bubbles; the program itself uses a par the PC design
		// space supports (vectorization only).
		pcProg := w.BuildForPC(workloads.Params{Par: 16, Scale: 1})
		pcC, err := pc.Compile(pcProg, spec)
		if err != nil {
			return fmt.Errorf("pc %s: %w", name, err)
		}
		pcR, err := pc.Simulate(pcC, false)
		if err != nil {
			return err
		}

		// SARA: best factor that fits the V1 chip.
		cfg := core.DefaultConfig()
		cfg.Spec = spec
		cfg.SkipPlace = true
		saraC, used, _, err := compileFit(w, w.DefaultPar, spec, cfg)
		if err != nil {
			return err
		}
		saraR, err := sim.Analytic(saraC.Design())
		if err != nil {
			return err
		}
		sp := float64(pcR.Cycles) / float64(saraR.Cycles)
		out[i] = Table5Row{
			Name: name, PCCycles: pcR.Cycles, SARACycles: saraR.Cycles,
			Speedup: sp, SARAPar: used, MemoryBound: w.MemoryBound,
		}
		return nil
	})
	if err != nil {
		return nil, 0, "", err
	}
	speedups := make([]float64, len(out))
	for i, r := range out {
		speedups[i] = r.Speedup
	}
	gm := geomean(speedups)
	var rows [][]string
	for _, r := range out {
		mb := ""
		if r.MemoryBound {
			mb = "bw-bound"
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.PCCycles),
			fmt.Sprintf("%d", r.SARACycles),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%d", r.SARAPar),
			mb,
		})
	}
	rows = append(rows, []string{"geo-mean", "", "", fmt.Sprintf("%.1fx", gm), "", ""})
	return out, gm, "Table V — SARA vs vanilla Plasticine compiler (Plasticine-v1, DDR3)\n" +
		table([]string{"kernel", "PC cycles", "SARA cycles", "speedup", "SARA par", ""}, rows), nil
}

// Table6Row compares SARA on the 20×20 HBM2 Plasticine against a Tesla V100
// (paper Table VI).
type Table6Row struct {
	Name string
	// SARASeconds and GPUSeconds are modelled runtimes for the same work.
	SARASeconds, GPUSeconds float64
	Speedup                 float64
	// AreaNorm is the area-normalized speedup, reported for compute-bound
	// kernels where the 8.3× larger GPU die wins on absolute throughput.
	AreaNorm float64
	SARAPar  int
}

// table6Kernels mirrors the paper's GPU comparison set.
var table6Kernels = []string{"snet", "lstm", "pr", "bs", "sort", "rf", "ms"}

// Table6Design compiles w the way Table6 does: at its default
// parallelization, lowered until the design fits the 20×20 chip, at scale 1
// and unplaced. It returns the design and the factor that fit.
func Table6Design(w *workloads.Workload) (*core.Compiled, int, error) {
	spec := arch.SARA20x20()
	cfg := core.DefaultConfig()
	cfg.Spec = spec
	cfg.SkipPlace = true
	c, used, _, err := compileFit(w, w.DefaultPar, spec, cfg)
	return c, used, err
}

// Table6 runs the GPU comparison.
func Table6() ([]Table6Row, float64, string, error) {
	spec := arch.SARA20x20()
	v100 := gpu.TeslaV100()
	// Kernels are independent compile-and-simulate points; fan them across
	// the worker pool into index-addressed rows.
	out := make([]Table6Row, len(table6Kernels))
	err := sweep.ForEachIndexed(len(table6Kernels), 0, func(i int) error {
		name := table6Kernels[i]
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		c, used, err := Table6Design(w)
		if err != nil {
			return err
		}
		r, err := sim.Analytic(c.Design())
		if err != nil {
			return err
		}
		saraSec := r.Seconds(spec)
		gpuSec := v100.Runtime(w.GPUProfile(workloads.Params{Par: used, Scale: 1}))
		sp := gpuSec / saraSec
		out[i] = Table6Row{
			Name: name, SARASeconds: saraSec, GPUSeconds: gpuSec,
			Speedup:  sp,
			AreaNorm: sp * (v100.AreaMM2 / spec.AreaMM2),
			SARAPar:  used,
		}
		return nil
	})
	if err != nil {
		return nil, 0, "", err
	}
	speedups := make([]float64, len(out))
	for i, r := range out {
		speedups[i] = r.Speedup
	}
	gm := geomean(speedups)
	var rows [][]string
	for _, r := range out {
		area := ""
		if r.Speedup < 1.5 {
			area = fmt.Sprintf("(%.1fx area-norm)", r.AreaNorm)
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3gms", r.SARASeconds*1e3),
			fmt.Sprintf("%.3gms", r.GPUSeconds*1e3),
			fmt.Sprintf("%.2fx", r.Speedup),
			area,
			fmt.Sprintf("%d", r.SARAPar),
		})
	}
	rows = append(rows, []string{"geo-mean", "", "", fmt.Sprintf("%.2fx", gm), "", ""})
	return out, gm, "Table VI — SARA (20×20 Plasticine, 1 TB/s HBM2) vs Tesla V100\n" +
		table([]string{"kernel", "SARA", "V100", "speedup", "", "par"}, rows), nil
}
