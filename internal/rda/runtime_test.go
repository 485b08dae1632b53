package rda

import (
	"strings"
	"testing"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/spatial"
)

// bigApp builds stages top-level pipeline stages, each heavy enough that only
// a few fit a small chip at once. The shared scratchpad carries state from
// stage 0 into the last stage, forcing spill/fill across any boundary.
func bigApp(stages, opsPerBlock int) *ir.Program {
	b := spatial.NewBuilder("bigapp")
	x := b.DRAM("x", 1<<20)
	carry := b.SRAM("carry", 1024)
	for s := 0; s < stages; s++ {
		s := s
		b.For(nameOf("stage", s), 0, 1024, 1, 16, func(i spatial.Iter) {
			b.Block(nameOf("work", s), func(blk *spatial.Block) {
				v := blk.Read(x, spatial.Streaming())
				blk.OpChain(spatial.OpFMA, opsPerBlock)
				if s == 0 {
					blk.WriteFrom(carry, spatial.Affine(0, spatial.Term(i, 1)), v)
				}
				if s == stages-1 {
					blk.Read(carry, spatial.Affine(0, spatial.Term(i, 1)))
				}
			})
		})
	}
	return b.MustBuild()
}

func nameOf(base string, i int) string {
	return base + string(rune('a'+i))
}

// tinyChip is small enough that only a couple of heavy stages fit at once.
func tinyChip() *arch.Spec {
	s := arch.SARA20x20()
	s.Name = "tiny"
	s.Rows, s.Cols = 4, 4
	s.NumPCU, s.NumPMU, s.NumAG = 12, 10, 6
	return s
}

func cfgFor(spec *arch.Spec) core.Config {
	cfg := core.DefaultConfig()
	cfg.Spec = spec
	cfg.SkipPlace = true
	return cfg
}

func TestSingleSegmentWhenItFits(t *testing.T) {
	prog := bigApp(2, 4)
	plan, err := Split(prog, cfgFor(arch.SARA20x20()))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(plan.Segments) != 1 {
		t.Fatalf("segments = %d, want 1 on the big chip", len(plan.Segments))
	}
	if plan.SpilledMems != 0 {
		t.Errorf("no spills expected for a resident program, got %d", plan.SpilledMems)
	}
}

func TestSegmentationSplitsOversizedApp(t *testing.T) {
	prog := bigApp(6, 24)
	spec := tinyChip()
	plan, err := Split(prog, cfgFor(spec))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(plan.Segments) < 2 {
		t.Fatalf("oversized app should need several segments, got %d", len(plan.Segments))
	}
	// Every segment must fit the chip.
	for i, seg := range plan.Segments {
		r := seg.Compiled.Resources()
		if !r.Fits(spec) {
			t.Errorf("segment %d exceeds the chip: %+v", i, r)
		}
	}
}

func TestSpillFillAcrossBoundary(t *testing.T) {
	prog := bigApp(6, 24)
	plan, err := Split(prog, cfgFor(tinyChip()))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if plan.SpilledMems != 1 {
		t.Fatalf("spilled mems = %d, want 1 (carry)", plan.SpilledMems)
	}
	first, last := plan.Segments[0], plan.Segments[len(plan.Segments)-1]
	if len(first.Spills) != 1 || !strings.Contains(first.Spills[0], "carry") {
		t.Errorf("first segment should spill carry, got %v", first.Spills)
	}
	if len(last.Fills) != 1 || !strings.Contains(last.Fills[0], "carry") {
		t.Errorf("last segment should fill carry, got %v", last.Fills)
	}
	// The fill transfer must be scheduled before the body.
	firstChild := last.Prog.Ctrl(last.Prog.Root().Children[0])
	if !strings.Contains(firstChild.Name, "xfer") {
		t.Errorf("fill loop should run first, got %q", firstChild.Name)
	}
}

func TestRunChargesReconfiguration(t *testing.T) {
	spec := tinyChip()
	plan, err := Split(bigApp(6, 24), cfgFor(spec))
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	rep, err := Run(plan, spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantReconf := int64(float64(len(plan.Segments)-1) * spec.ReconfigMicros * 1e3 * spec.ClockGHz)
	if rep.ReconfigCycles != wantReconf {
		t.Errorf("reconfig cycles = %d, want %d", rep.ReconfigCycles, wantReconf)
	}
	if rep.TotalCycles != rep.ComputeCycles+rep.ReconfigCycles {
		t.Error("total != compute + reconfig")
	}
	// Reconfiguration must be a visible cost — the motivation for keeping
	// whole CFGs resident (paper §II-A).
	if rep.ReconfigCycles == 0 {
		t.Error("reconfiguration should cost cycles")
	}
}

func TestExtractPreservesStructure(t *testing.T) {
	prog := bigApp(3, 4)
	sub := extract(prog, prog.Root().Children[:2])
	if err := sub.Validate(); err != nil {
		t.Fatalf("extracted program invalid: %v", err)
	}
	if got := len(sub.Root().Children); got != 2 {
		t.Errorf("extracted children = %d, want 2", got)
	}
	// Same block count as the two source subtrees.
	want := 0
	for _, top := range prog.Root().Children[:2] {
		var rec func(ir.CtrlID)
		rec = func(id ir.CtrlID) {
			if prog.Ctrl(id).Kind == ir.CtrlBlock {
				want++
			}
			for _, ch := range prog.Ctrl(id).Children {
				rec(ch)
			}
		}
		rec(top)
	}
	if got := len(sub.Blocks()); got != want {
		t.Errorf("extracted blocks = %d, want %d", got, want)
	}
}
