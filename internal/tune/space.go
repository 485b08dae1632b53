package tune

import (
	"fmt"
	"strings"

	"sara/internal/arch"
	"sara/internal/opt"
)

// OptSet is a named compiler-optimization configuration, the unit of the
// tuner's optimization axis. Names follow the Fig 9b tradeoff study; every
// set keeps plain retiming on (unbuffered graphs just stall), so the retime
// knob swept here is the scratch-backed retime-m variant.
type OptSet struct {
	Name string      `json:"name"`
	Opts opt.Options `json:"-"`
}

// NamedOptSets lists the optimization configurations the tuner understands,
// in a fixed order.
var NamedOptSets = []OptSet{
	{"all", opt.All()},
	{"no-msr", opt.Options{RtElm: true, Retime: true, RetimeMem: true, XbarElm: true}},
	{"no-retime-mem", opt.Options{MSR: true, RtElm: true, Retime: true, XbarElm: true}},
	{"no-xbar-elm", opt.Options{MSR: true, RtElm: true, Retime: true, RetimeMem: true}},
	{"msr+rtelm", opt.Options{MSR: true, RtElm: true, Retime: true}},
	{"none", opt.Options{Retime: true}},
}

// OptSetByName resolves one named set.
func OptSetByName(name string) (OptSet, error) {
	for _, s := range NamedOptSets {
		if s.Name == name {
			return s, nil
		}
	}
	known := make([]string, len(NamedOptSets))
	for i, s := range NamedOptSets {
		known[i] = s.Name
	}
	return OptSet{}, fmt.Errorf("tune: unknown opt set %q (want one of %s)", name, strings.Join(known, ", "))
}

// ParseOptSets resolves a comma-separated list of set names ("" means "all").
func ParseOptSets(list string) ([]OptSet, error) {
	if strings.TrimSpace(list) == "" {
		return []OptSet{NamedOptSets[0]}, nil
	}
	var out []OptSet
	for _, name := range strings.Split(list, ",") {
		s, err := OptSetByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Space is the design-space grid: the cross product of every non-empty axis.
// An empty arch-knob axis means "the base spec's value only". Pars defaults
// to the workload's paper parallelization; Opts defaults to all
// optimizations on.
type Space struct {
	// Pars is the parallelization-factor axis.
	Pars []int `json:"pars,omitempty"`
	// Opts is the optimization-flag axis.
	Opts []OptSet `json:"opts,omitempty"`
	// Arch-spec knob axes. Zero entries are rejected (use the base value by
	// leaving the axis empty instead).
	NumPCU       []int `json:"num_pcu,omitempty"`
	NumPMU       []int `json:"num_pmu,omitempty"`
	NumAG        []int `json:"num_ag,omitempty"`
	DRAMChannels []int `json:"dram_channels,omitempty"`
	Rows         []int `json:"rows,omitempty"`
	Cols         []int `json:"cols,omitempty"`
	StreamDepths []int `json:"stream_depths,omitempty"`
}

// Size returns the number of points the space enumerates to.
func (s *Space) Size() int {
	n := len(s.Pars)
	if n == 0 {
		n = 1
	}
	for _, axis := range [][]int{s.NumPCU, s.NumPMU, s.NumAG, s.DRAMChannels, s.Rows, s.Cols, s.StreamDepths} {
		if len(axis) > 0 {
			n *= len(axis)
		}
	}
	if len(s.Opts) > 0 {
		n *= len(s.Opts)
	}
	return n
}

// Point is one candidate configuration. Zero-valued arch knobs mean "keep
// the base spec's value". IDs are assigned in enumeration order, which is
// fixed: par (outermost), opt set, NumPCU, NumPMU, NumAG, DRAM channels,
// rows, cols, stream depth (innermost).
type Point struct {
	ID  int    `json:"id"`
	Par int    `json:"par"`
	Opt OptSet `json:"opt"`

	NumPCU       int `json:"num_pcu,omitempty"`
	NumPMU       int `json:"num_pmu,omitempty"`
	NumAG        int `json:"num_ag,omitempty"`
	DRAMChannels int `json:"dram_channels,omitempty"`
	Rows         int `json:"rows,omitempty"`
	Cols         int `json:"cols,omitempty"`
	StreamDepth  int `json:"stream_depth,omitempty"`
}

// Arch overlays the point's arch knobs on base: each non-zero knob replaces
// base's override of the same field. It is the one description of a point's
// chip, which the search, saratune and sarad all compile from.
func (p *Point) Arch(base arch.SpecJSON) arch.SpecJSON {
	for _, k := range []struct {
		v   int
		dst *int
	}{
		{p.NumPCU, &base.NumPCU}, {p.NumPMU, &base.NumPMU}, {p.NumAG, &base.NumAG},
		{p.DRAMChannels, &base.DRAMChannels}, {p.Rows, &base.Rows}, {p.Cols, &base.Cols},
		{p.StreamDepth, &base.StreamDepth},
	} {
		if k.v != 0 {
			*k.dst = k.v
		}
	}
	return base
}

// Spec materializes the point's chip: p.Arch(base), validated.
func (p *Point) Spec(base arch.SpecJSON) (*arch.Spec, error) {
	a := p.Arch(base)
	s, err := a.Spec()
	if err != nil {
		return nil, fmt.Errorf("tune: point %d (%s): %w", p.ID, p.Label(), err)
	}
	return s, nil
}

// Label renders the point's non-default knobs compactly.
func (p *Point) Label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "par=%d opts=%s", p.Par, p.Opt.Name)
	for _, k := range []struct {
		name string
		v    int
	}{
		{"pcu", p.NumPCU}, {"pmu", p.NumPMU}, {"ag", p.NumAG},
		{"ch", p.DRAMChannels}, {"rows", p.Rows}, {"cols", p.Cols},
		{"depth", p.StreamDepth},
	} {
		if k.v != 0 {
			fmt.Fprintf(&sb, " %s=%d", k.name, k.v)
		}
	}
	return sb.String()
}

// points enumerates the space in the documented deterministic order.
func (s *Space) points(defaultPar int) ([]Point, error) {
	pars := s.Pars
	if len(pars) == 0 {
		pars = []int{defaultPar}
	}
	opts := s.Opts
	if len(opts) == 0 {
		opts = []OptSet{NamedOptSets[0]}
	}
	for _, par := range pars {
		if par <= 0 {
			return nil, fmt.Errorf("tune: par %d invalid: parallelization factors must be positive", par)
		}
	}
	orBase := func(axis []int) []int {
		if len(axis) == 0 {
			return []int{0}
		}
		return axis
	}
	for _, axis := range []struct {
		name string
		vals []int
	}{
		{"num_pcu", s.NumPCU}, {"num_pmu", s.NumPMU}, {"num_ag", s.NumAG},
		{"dram_channels", s.DRAMChannels}, {"rows", s.Rows}, {"cols", s.Cols},
		{"stream_depths", s.StreamDepths},
	} {
		for _, v := range axis.vals {
			if v <= 0 {
				return nil, fmt.Errorf("tune: %s %d invalid: axis values must be positive (leave the axis empty for the base value)", axis.name, v)
			}
		}
	}
	var pts []Point
	for _, par := range pars {
		for _, os := range opts {
			for _, pcu := range orBase(s.NumPCU) {
				for _, pmu := range orBase(s.NumPMU) {
					for _, ag := range orBase(s.NumAG) {
						for _, ch := range orBase(s.DRAMChannels) {
							for _, rows := range orBase(s.Rows) {
								for _, cols := range orBase(s.Cols) {
									for _, depth := range orBase(s.StreamDepths) {
										pts = append(pts, Point{
											ID: len(pts), Par: par, Opt: os,
											NumPCU: pcu, NumPMU: pmu, NumAG: ag,
											DRAMChannels: ch, Rows: rows, Cols: cols,
											StreamDepth: depth,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}
