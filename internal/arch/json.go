package arch

import "fmt"

// SpecJSON is the wire form of a chip configuration: a named preset, an
// optional generation-scaling factor, and optional field overrides. It is
// what the sarad serving API accepts as the "arch" member of a request, and
// its zero value means "the paper's default 20×20 HBM2 chip".
//
// Overrides with a zero value keep the preset's setting, so a request only
// states what it changes.
type SpecJSON struct {
	// Preset selects the base configuration: "20x20" (default) or "v1".
	Preset string `json:"preset,omitempty"`
	// Scale applies Spec.Scaled with the given factor (≥ 2 to take effect,
	// at most MaxScale), emulating larger chip generations.
	Scale int `json:"scale,omitempty"`

	ClockGHz            float64 `json:"clock_ghz,omitempty"`
	DRAMChannels        int     `json:"dram_channels,omitempty"`
	NetHopLatencyCycles int     `json:"net_hop_latency_cycles,omitempty"`
	DefaultStreamHops   int     `json:"default_stream_hops,omitempty"`
	NumPCU              int     `json:"num_pcu,omitempty"`
	NumPMU              int     `json:"num_pmu,omitempty"`
	NumAG               int     `json:"num_ag,omitempty"`
	Rows                int     `json:"rows,omitempty"`
	Cols                int     `json:"cols,omitempty"`
	// StreamDepth overrides the per-input stream buffer depth (InBufDepth) of
	// every unit type at once — the knob the autotuner sweeps.
	StreamDepth int `json:"stream_depth,omitempty"`
}

// MaxScale bounds SpecJSON.Scale, so Spec.Scaled cannot overflow a unit
// count into range; Validate's ceilings then bound the scaled chip.
const MaxScale = 64

// checkOverrides rejects negative (and other nonsensical) override values
// with descriptive errors. Zero means "keep the preset's setting", so only
// explicitly bad values fail; the tuner mutates these fields programmatically
// and a bad knob combo must fail loudly, not simulate garbage.
func (j *SpecJSON) checkOverrides() error {
	if j.Scale > MaxScale {
		return fmt.Errorf("arch: scale %d invalid: must be at most %d", j.Scale, MaxScale)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"scale", j.Scale},
		{"dram_channels", j.DRAMChannels},
		{"net_hop_latency_cycles", j.NetHopLatencyCycles},
		{"default_stream_hops", j.DefaultStreamHops},
		{"num_pcu", j.NumPCU},
		{"num_pmu", j.NumPMU},
		{"num_ag", j.NumAG},
		{"rows", j.Rows},
		{"cols", j.Cols},
		{"stream_depth", j.StreamDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("arch: %s %d invalid: overrides must be positive (zero keeps the preset's value)", f.name, f.v)
		}
	}
	if j.ClockGHz < 0 {
		return fmt.Errorf("arch: clock_ghz %v invalid: overrides must be positive (zero keeps the preset's value)", j.ClockGHz)
	}
	return nil
}

// Preset returns a fresh copy of the named chip: "" or "20x20" (alias
// "sara20x20") for the paper's 20×20 HBM2 chip, "v1" (alias
// "plasticine-v1") for the DDR3 Plasticine of Table V.
func Preset(name string) (*Spec, error) {
	switch name {
	case "", "20x20", "sara20x20":
		return SARA20x20(), nil
	case "v1", "plasticine-v1":
		return PlasticineV1(), nil
	}
	return nil, fmt.Errorf("arch: unknown preset %q (want 20x20 or v1)", name)
}

// Spec materializes the request into a validated chip configuration.
func (j *SpecJSON) Spec() (*Spec, error) {
	if err := j.checkOverrides(); err != nil {
		return nil, err
	}
	s, err := Preset(j.Preset)
	if err != nil {
		return nil, err
	}
	if j.Scale > 1 {
		s = s.Scaled(j.Scale)
	}
	if j.ClockGHz > 0 {
		s.ClockGHz = j.ClockGHz
	}
	if j.DRAMChannels > 0 {
		s.DRAM.Channels = j.DRAMChannels
	}
	if j.NetHopLatencyCycles > 0 {
		s.NetHopLatencyCycles = j.NetHopLatencyCycles
	}
	if j.DefaultStreamHops > 0 {
		s.DefaultStreamHops = j.DefaultStreamHops
	}
	if j.NumPCU > 0 {
		s.NumPCU = j.NumPCU
	}
	if j.NumPMU > 0 {
		s.NumPMU = j.NumPMU
	}
	if j.NumAG > 0 {
		s.NumAG = j.NumAG
	}
	if j.Rows > 0 {
		s.Rows = j.Rows
	}
	if j.Cols > 0 {
		s.Cols = j.Cols
	}
	if j.StreamDepth > 0 {
		s.PCU.InBufDepth = j.StreamDepth
		s.PMU.InBufDepth = j.StreamDepth
		s.AG.InBufDepth = j.StreamDepth
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
