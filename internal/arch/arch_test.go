package arch

import (
	"math"
	"testing"
)

func TestSARA20x20MatchesPaper(t *testing.T) {
	s := SARA20x20()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// §IV-a: 20×20 layout, 420 physical units, 1 TB/s HBM2.
	if s.Rows != 20 || s.Cols != 20 {
		t.Errorf("layout %dx%d, want 20x20", s.Rows, s.Cols)
	}
	if got := s.TotalPUs(); got != 420 {
		t.Errorf("total PUs = %d, want 420", got)
	}
	if got := s.DRAM.TotalGBs(s.ClockGHz); got != 1000 {
		t.Errorf("HBM2 bandwidth = %v GB/s, want 1000", got)
	}
	// Plasticine PCU: 16 lanes × 6 stages.
	if s.PCU.Lanes != 16 || s.PCU.Stages != 6 {
		t.Errorf("PCU %dx%d, want 16 lanes x 6 stages", s.PCU.Lanes, s.PCU.Stages)
	}
	// PMU: 256 KB of 32-bit words.
	if s.PMU.ScratchElems != 64*1024 {
		t.Errorf("PMU scratch = %d elems, want 65536", s.PMU.ScratchElems)
	}
}

func TestPlasticineV1MatchesOriginalPaper(t *testing.T) {
	s := PlasticineV1()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// §IV-C: original config with 49 GB/s DDR3.
	if s.NumPCU != 64 || s.NumPMU != 64 {
		t.Errorf("PUs = %d/%d, want 64/64", s.NumPCU, s.NumPMU)
	}
	if got := s.DRAM.TotalGBs(s.ClockGHz); got != 49 {
		t.Errorf("DDR3 bandwidth = %v GB/s, want 49", got)
	}
	if s.DRAM.Kind != DDR3 {
		t.Errorf("DRAM kind = %v, want DDR3", s.DRAM.Kind)
	}
}

func TestScaledMultipliesResources(t *testing.T) {
	base := SARA20x20()
	s := base.Scaled(4)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumPCU != 4*base.NumPCU || s.DRAM.Channels != 4*base.DRAM.Channels {
		t.Errorf("Scaled(4) PCU=%d channels=%d", s.NumPCU, s.DRAM.Channels)
	}
	if s.AreaMM2 != 4*base.AreaMM2 {
		t.Errorf("area = %v, want 4x", s.AreaMM2)
	}
	// Base spec untouched.
	if base.NumPCU != 200 {
		t.Error("Scaled mutated the base spec")
	}
	if got := base.Scaled(0).NumPCU; got != base.NumPCU {
		t.Errorf("Scaled(0) should clamp to 1x, got %d PCUs", got)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero rows", func(s *Spec) { s.Rows = 0 }},
		{"negative cols", func(s *Spec) { s.Cols = -4 }},
		{"zero PCUs", func(s *Spec) { s.NumPCU = 0 }},
		{"zero PMUs", func(s *Spec) { s.NumPMU = 0 }},
		{"zero AGs", func(s *Spec) { s.NumAG = 0 }},
		{"negative AGs", func(s *Spec) { s.NumAG = -1 }},
		{"zero PCU lanes", func(s *Spec) { s.PCU.Lanes = 0 }},
		{"zero PCU in-buf depth", func(s *Spec) { s.PCU.InBufDepth = 0 }},
		{"zero PMU in-buf depth", func(s *Spec) { s.PMU.InBufDepth = 0 }},
		{"zero AG in-buf depth", func(s *Spec) { s.AG.InBufDepth = 0 }},
		{"zero PMU scratch", func(s *Spec) { s.PMU.ScratchElems = 0 }},
		{"zero DRAM channels", func(s *Spec) { s.DRAM.Channels = 0 }},
		{"negative DRAM channels", func(s *Spec) { s.DRAM.Channels = -16 }},
		{"zero DRAM bandwidth", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = 0 }},
		{"negative DRAM bandwidth", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = -62.5 }},
		{"NaN DRAM bandwidth", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = math.NaN() }},
		{"infinite DRAM bandwidth", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = math.Inf(1) }},
		{"DRAM bandwidth off the 2^-10 grid", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = 62.3 }},
		{"DRAM bandwidth below the grid step", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = DRAMBandwidthStep / 2 }},
		{"DRAM bandwidth above the ceiling", func(s *Spec) { s.DRAM.BytesPerCyclePerChannel = MaxDRAMBandwidth + 1 }},
		{"zero clock", func(s *Spec) { s.ClockGHz = 0 }},
		{"grid above the ceiling", func(s *Spec) { s.Rows = MaxGridCells }},
		{"PMUs above the ceiling", func(s *Spec) { s.NumPMU = MaxUnits + 1 }},
		{"DRAM channels above the ceiling", func(s *Spec) { s.DRAM.Channels = MaxDRAMChannels + 1 }},
		{"PMU in-buf depth above the ceiling", func(s *Spec) { s.PMU.InBufDepth = MaxStreamDepth + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := SARA20x20()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Errorf("broken spec (%s) passed validation", tc.name)
			}
		})
	}
}

// TestValidateAcceptsGridBandwidths keeps the edges of the bandwidth grid
// valid: its step, its ceiling and both presets' fractional bandwidths.
func TestValidateAcceptsGridBandwidths(t *testing.T) {
	for _, bw := range []float64{DRAMBandwidthStep, 3 * DRAMBandwidthStep, 0.5, 12.25, 62.5, 64, MaxDRAMBandwidth} {
		s := SARA20x20()
		s.DRAM.BytesPerCyclePerChannel = bw
		if err := s.Validate(); err != nil {
			t.Errorf("bandwidth %v: %v", bw, err)
		}
	}
}

func TestPUSpecForCoversTypes(t *testing.T) {
	s := SARA20x20()
	if s.PUSpecFor(PCU).Type != PCU || s.PUSpecFor(PMU).Type != PMU || s.PUSpecFor(AG).Type != AG {
		t.Error("PUSpecFor returns wrong records")
	}
}
