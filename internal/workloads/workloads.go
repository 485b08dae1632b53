// Package workloads implements the paper's benchmark suite (Table IV) as
// Spatial programs: deep-learning kernels (mlp, lstm, snet), machine-learning
// analytics (kmeans, gda, logreg, sgd), graph processing (pr), and streaming
// applications (bs, sort, rf, ms). Each workload builds a parameterized
// program for a given parallelization factor and exposes the matching GPU
// execution profile for the Table VI comparison.
//
// Datasets are synthetic with matching shape statistics (layer dimensions,
// tree depth and count, graph degree distribution), per the substitution
// policy in DESIGN.md: RDA runtime depends on iteration counts, tile shapes,
// and access-pattern classes, which the generators preserve.
package workloads

import (
	"fmt"
	"sort"

	"sara/internal/gpu"
	"sara/internal/ir"
)

// Params selects a workload configuration.
type Params struct {
	// Par is the total parallelization factor, distributed over the
	// workload's parallelizable loops (innermost levels vectorize up to 16
	// lanes; the rest spatially unrolls).
	Par int
	// Scale divides the problem size, keeping cycle-level simulation
	// tractable in tests. 1 = paper-scale.
	Scale int
}

func (p Params) norm() Params {
	if p.Par < 1 {
		p.Par = 1
	}
	if p.Scale < 1 {
		p.Scale = 1
	}
	return p
}

// splitPar divides a total factor into (innermost lanes, outer spatial).
func splitPar(par int) (lanes, outer int) {
	lanes = par
	if lanes > 16 {
		lanes = 16
	}
	outer = (par + lanes - 1) / lanes
	return
}

// scaled divides n by the scale, keeping at least min.
func scaled(n, scale, min int) int {
	v := n / scale
	if v < min {
		v = min
	}
	return v
}

// Workload is one benchmark.
type Workload struct {
	Name   string
	Domain string
	// Control summarizes the control structure for Table IV.
	Control string
	// MemoryBound marks workloads expected to saturate DRAM bandwidth
	// before on-chip resources.
	MemoryBound bool
	// DefaultPar is the paper's best-performing factor on the 20×20 chip.
	DefaultPar int
	// Build constructs the program.
	Build func(Params) *ir.Program
	// PCBuild, when set, is a restructured variant that satisfies the
	// vanilla Plasticine compiler's single-reader/single-writer memory
	// restriction (paper §IV-C). Nil means Build already qualifies.
	PCBuild func(Params) *ir.Program
	// GPUProfile returns the V100 execution profile at paper scale.
	GPUProfile func(Params) gpu.Workload
}

var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns every workload, sorted by name.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BuildForPC returns the PC-compatible program variant.
func (w *Workload) BuildForPC(p Params) *ir.Program {
	if w.PCBuild != nil {
		return w.PCBuild(p)
	}
	return w.Build(p)
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists available workload names.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}
