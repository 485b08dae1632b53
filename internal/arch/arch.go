// Package arch describes the target Reconfigurable Dataflow Accelerator:
// Plasticine's physical-unit capabilities, chip layouts, and DRAM technology
// (paper §II, §IV-a).
//
// Two presets matter for the evaluation: SARA20x20 is the paper's 20×20
// configuration with 420 physical units and HBM2 at 1 TB/s (§IV-a), and
// PlasticineV1 is the original Plasticine paper's 16×8 configuration with
// DDR3 at 49 GB/s, used for the vanilla-compiler comparison (§IV-C).
package arch

import (
	"fmt"
	"math"
)

// PUType enumerates the physical-unit types of the RDA fabric.
type PUType int

const (
	// PCU is a pattern compute unit: a SIMD pipeline of functional-unit
	// stages driven by a chained counter.
	PCU PUType = iota
	// PMU is a pattern memory unit: a banked scratchpad with its own address
	// datapath.
	PMU
	// AG is a DRAM address generator / interface unit on the chip boundary.
	AG
)

// String returns the unit-type mnemonic.
func (t PUType) String() string {
	switch t {
	case PCU:
		return "PCU"
	case PMU:
		return "PMU"
	case AG:
		return "AG"
	default:
		return fmt.Sprintf("PU(%d)", int(t))
	}
}

// PUSpec describes the capabilities of one physical-unit type; these are the
// resource limits the partitioner (paper Table I) must respect.
type PUSpec struct {
	Type PUType
	// Lanes is the SIMD width of the datapath.
	Lanes int
	// Stages is the number of functional-unit pipeline stages; one vector op
	// occupies one stage, so Stages bounds the ops per unit.
	Stages int
	// MaxIn and MaxOut bound the vector-stream input/output arity of the
	// unit (c_I and c_O in paper Table III). Broadcast edges with a unique
	// source count once.
	MaxIn, MaxOut int
	// InBufDepth is the per-input stream buffer depth in elements (b_d in
	// paper Table III); paths whose delay mismatch exceeds it need retiming
	// buffers.
	InBufDepth int
	// ScratchElems is the scratchpad capacity in datapath elements (PMU
	// only).
	ScratchElems int64
	// MaxCounters bounds the chained-counter depth.
	MaxCounters int
}

// DRAMKind selects the off-chip memory technology.
type DRAMKind int

const (
	// HBM2 models the paper's 1 TB/s high-bandwidth memory (§IV-a).
	HBM2 DRAMKind = iota
	// DDR3 models the original Plasticine evaluation's 49 GB/s DDR3 (§IV-C).
	DDR3
)

// String returns the technology name.
func (k DRAMKind) String() string {
	if k == HBM2 {
		return "HBM2"
	}
	return "DDR3"
}

// DRAMSpec describes the off-chip memory system.
type DRAMSpec struct {
	Kind DRAMKind
	// Channels is the number of independent channels; each AG binds to one.
	Channels int
	// BytesPerCyclePerChannel is the peak streaming bandwidth per channel,
	// normalized to the accelerator clock.
	BytesPerCyclePerChannel float64
	// LatencyCycles is the unloaded request round-trip latency.
	LatencyCycles int
	// BurstBytes is the minimum transfer granule; smaller or misaligned
	// requests waste bandwidth.
	BurstBytes int
}

// The DRAM bandwidths the simulator holds exactly. It keeps channel time in
// integer ticks (internal/dram): a bandwidth of n/2^j bytes per cycle makes a
// cycle n ticks and a byte 2^j. A multiple of DRAMBandwidthStep at most
// MaxDRAMBandwidth keeps a cycle at most 2^24 ticks, so int64 ticks cover
// 2^39 cycles.
const (
	DRAMBandwidthStep = 1.0 / (1 << 10) // bytes per cycle per channel
	MaxDRAMBandwidth  = 1 << 14         // bytes per cycle per channel
)

// CheckBandwidth refuses a per-channel bandwidth the simulator's integer
// channel time cannot hold: one that is not a positive finite multiple of
// DRAMBandwidthStep at most MaxDRAMBandwidth.
func (d DRAMSpec) CheckBandwidth() error {
	bw := d.BytesPerCyclePerChannel
	switch {
	case !(bw > 0) || bw > MaxDRAMBandwidth:
		return fmt.Errorf("DRAM bandwidth %v bytes/cycle/channel invalid: must be positive and at most %d", bw, MaxDRAMBandwidth)
	case bw/DRAMBandwidthStep != math.Trunc(bw/DRAMBandwidthStep):
		return fmt.Errorf("DRAM bandwidth %v bytes/cycle/channel invalid: must be a multiple of 2^-10", bw)
	}
	return nil
}

// TotalBytesPerCycle returns the aggregate peak bandwidth in bytes/cycle.
func (d DRAMSpec) TotalBytesPerCycle() float64 {
	return d.BytesPerCyclePerChannel * float64(d.Channels)
}

// TotalGBs returns the aggregate peak bandwidth in GB/s at the given clock.
func (d DRAMSpec) TotalGBs(clockGHz float64) float64 {
	return d.TotalBytesPerCycle() * clockGHz
}

// Spec is a full chip configuration.
type Spec struct {
	Name string
	// Rows and Cols define the switch grid the PUs hang off.
	Rows, Cols int
	// NumPCU, NumPMU, NumAG are the unit counts (NumPCU+NumPMU+NumAG is the
	// paper's "physical units" total).
	NumPCU, NumPMU, NumAG int

	PCU PUSpec
	PMU PUSpec
	AG  PUSpec

	DRAM DRAMSpec

	// ClockGHz is the fabric clock.
	ClockGHz float64
	// NetHopLatencyCycles is the per-switch-hop latency of the on-chip
	// network; control signals crossing the chip take tens of cycles
	// (paper §II-B).
	NetHopLatencyCycles int
	// DefaultStreamHops is the switch-hop distance the simulator charges a
	// stream when the compiled design carries no placement — either because
	// compilation skipped the placer (fast design-space sweeps) or because a
	// sim.Design was assembled without merge/placement results. Zero or
	// negative falls back to the simulator's built-in default, so
	// hand-constructed Specs keep their historical behaviour.
	DefaultStreamHops int
	// LinkLanes is the vector width of one network link.
	LinkLanes int
	// ReconfigMicros is the full-chip reconfiguration time (paper §II-A c).
	ReconfigMicros float64
	// AreaMM2 is the chip area, used for area-normalized comparisons
	// (paper Table VI).
	AreaMM2 float64
}

// TotalPUs returns the number of physical units on the chip.
func (s *Spec) TotalPUs() int { return s.NumPCU + s.NumPMU + s.NumAG }

// PUSpecFor returns the capability record for a unit type.
func (s *Spec) PUSpecFor(t PUType) PUSpec {
	switch t {
	case PCU:
		return s.PCU
	case PMU:
		return s.PMU
	default:
		return s.AG
	}
}

// Ceilings on the knobs a request or a tune point can set. Every preset ×
// scale a test, tune space or experiment uses sits far below them (the 20×20
// chip at scale 64 has a 1280×20 grid, 12 800 PCUs and 1 024 DRAM channels);
// above them the compiler and simulator would allocate or loop in proportion
// to the number, so Validate refuses before any work starts.
const (
	MaxGridCells    = 1 << 16 // Rows × Cols
	MaxUnits        = 1 << 16 // each of NumPCU, NumPMU, NumAG
	MaxDRAMChannels = 1 << 12
	MaxStreamDepth  = 1 << 16 // every unit type's InBufDepth
)

// Validate checks internal consistency of the spec. The autotuner mutates
// specs programmatically, so every knob it can reach must fail loudly with a
// descriptive error rather than simulate garbage.
func (s *Spec) Validate() error {
	switch {
	case s.Rows <= 0 || s.Cols <= 0:
		return fmt.Errorf("arch %s: grid %dx%d invalid: rows and cols must be positive", s.Name, s.Rows, s.Cols)
	case s.Rows > MaxGridCells || s.Cols > MaxGridCells || s.Rows*s.Cols > MaxGridCells:
		return fmt.Errorf("arch %s: grid %dx%d invalid: rows × cols must be at most %d", s.Name, s.Rows, s.Cols, MaxGridCells)
	case s.NumPCU > MaxUnits || s.NumPMU > MaxUnits || s.NumAG > MaxUnits:
		return fmt.Errorf("arch %s: num_pcu %d / num_pmu %d / num_ag %d invalid: each must be at most %d",
			s.Name, s.NumPCU, s.NumPMU, s.NumAG, MaxUnits)
	case s.DRAM.Channels > MaxDRAMChannels:
		return fmt.Errorf("arch %s: dram_channels %d invalid: must be at most %d", s.Name, s.DRAM.Channels, MaxDRAMChannels)
	case s.PCU.InBufDepth > MaxStreamDepth || s.PMU.InBufDepth > MaxStreamDepth || s.AG.InBufDepth > MaxStreamDepth:
		return fmt.Errorf("arch %s: stream_depth invalid (PCU %d, PMU %d, AG %d): each must be at most %d",
			s.Name, s.PCU.InBufDepth, s.PMU.InBufDepth, s.AG.InBufDepth, MaxStreamDepth)
	case s.NumPCU <= 0:
		return fmt.Errorf("arch %s: num_pcu %d invalid: chip needs at least one PCU", s.Name, s.NumPCU)
	case s.NumPMU <= 0:
		return fmt.Errorf("arch %s: num_pmu %d invalid: chip needs at least one PMU", s.Name, s.NumPMU)
	case s.NumAG <= 0:
		return fmt.Errorf("arch %s: num_ag %d invalid: chip needs at least one DRAM address generator", s.Name, s.NumAG)
	case s.PCU.Lanes <= 0 || s.PCU.Stages <= 0:
		return fmt.Errorf("arch %s: PCU lanes %d / stages %d invalid: both must be positive", s.Name, s.PCU.Lanes, s.PCU.Stages)
	case s.PCU.InBufDepth <= 0 || s.PMU.InBufDepth <= 0 || s.AG.InBufDepth <= 0:
		return fmt.Errorf("arch %s: stream buffer depth invalid (PCU %d, PMU %d, AG %d): all must be positive",
			s.Name, s.PCU.InBufDepth, s.PMU.InBufDepth, s.AG.InBufDepth)
	case s.PMU.ScratchElems <= 0:
		return fmt.Errorf("arch %s: PMU scratch capacity %d invalid: must be positive", s.Name, s.PMU.ScratchElems)
	case s.DRAM.Channels <= 0:
		return fmt.Errorf("arch %s: dram_channels %d invalid: must be positive", s.Name, s.DRAM.Channels)
	case s.ClockGHz <= 0:
		return fmt.Errorf("arch %s: clock %v GHz invalid: must be positive", s.Name, s.ClockGHz)
	}
	if err := s.DRAM.CheckBandwidth(); err != nil {
		return fmt.Errorf("arch %s: %w", s.Name, err)
	}
	return nil
}

// SARA20x20 returns the paper's evaluation target: a 20×20 Plasticine layout
// with 420 physical units and 1 TB/s HBM2 (§IV-a). With a 1 GHz clock,
// 1 TB/s equals 1000 bytes/cycle, spread over 16 channels.
func SARA20x20() *Spec {
	s := &Spec{
		Name:   "plasticine-20x20-hbm2",
		Rows:   20,
		Cols:   20,
		NumPCU: 200,
		NumPMU: 200,
		NumAG:  20,
		PCU: PUSpec{
			Type: PCU, Lanes: 16, Stages: 6,
			MaxIn: 4, MaxOut: 4, InBufDepth: 16, MaxCounters: 8,
		},
		PMU: PUSpec{
			Type: PMU, Lanes: 16, Stages: 4,
			MaxIn: 4, MaxOut: 4, InBufDepth: 16, MaxCounters: 8,
			ScratchElems: 64 * 1024, // 256 KB of 32-bit words
		},
		AG: PUSpec{
			Type: AG, Lanes: 16, Stages: 2,
			MaxIn: 2, MaxOut: 2, InBufDepth: 32, MaxCounters: 8,
		},
		DRAM: DRAMSpec{
			Kind:                    HBM2,
			Channels:                16,
			BytesPerCyclePerChannel: 62.5, // 16 ch × 62.5 B/cy = 1000 B/cy = 1 TB/s @ 1 GHz
			LatencyCycles:           120,
			BurstBytes:              64,
		},
		ClockGHz:            1.0,
		NetHopLatencyCycles: 2,
		DefaultStreamHops:   4,
		LinkLanes:           16,
		ReconfigMicros:      20,
		AreaMM2:             98, // ≈12% of a 815 mm² V100 (paper abstract)
	}
	return s
}

// PlasticineV1 returns the original Plasticine paper's configuration: a 16×8
// layout (64 PCUs + 64 PMUs), four DDR3 channels totalling 49 GB/s. Used for
// the vanilla-compiler comparison (paper §IV-C, Table V).
func PlasticineV1() *Spec {
	s := SARA20x20()
	s.Name = "plasticine-v1-ddr3"
	s.Rows, s.Cols = 16, 8
	s.NumPCU, s.NumPMU, s.NumAG = 64, 64, 12
	s.DRAM = DRAMSpec{
		Kind:                    DDR3,
		Channels:                4,
		BytesPerCyclePerChannel: 12.25, // 4 ch × 12.25 B/cy = 49 GB/s @ 1 GHz
		LatencyCycles:           160,
		BurstBytes:              64,
	}
	s.AreaMM2 = 55
	return s
}

// Scaled returns a copy of s with the PU counts and DRAM channels scaled by
// factor (≥1), emulating larger chip generations for scalability studies.
func (s *Spec) Scaled(factor int) *Spec {
	if factor < 1 {
		factor = 1
	}
	c := *s
	c.Name = fmt.Sprintf("%s-x%d", s.Name, factor)
	c.NumPCU *= factor
	c.NumPMU *= factor
	c.NumAG *= factor
	c.Rows *= factor
	c.DRAM.Channels *= factor
	c.AreaMM2 *= float64(factor)
	return &c
}
