package interp

import (
	"testing"

	"sara/internal/consistency"
	"sara/internal/ir"
	"sara/internal/workloads"
	"sara/spatial"
)

func TestAddressSetAffine(t *testing.T) {
	b := spatial.NewBuilder("a")
	m := b.SRAM("m", 64)
	var acc *spatial.Access
	b.For("i", 0, 4, 1, 1, func(i spatial.Iter) {
		b.For("j", 0, 8, 1, 1, func(j spatial.Iter) {
			b.Block("w", func(blk *spatial.Block) {
				acc = blk.Write(m, spatial.Affine(2, spatial.Term(i, 8), spatial.Term(j, 1)))
			})
		})
	})
	p := b.MustBuild()
	// Per iteration of the root: addresses 2 + 8i + j for i<4, j<8 = [2,34).
	set := AddressSet(p, acc, 0)
	if len(set) != 32 {
		t.Fatalf("address count = %d, want 32", len(set))
	}
	for a := 2; a < 34; a++ {
		if !set[a] {
			t.Errorf("address %d missing", a)
		}
	}
	// Per iteration of loop i: only the j loop varies: 8 addresses.
	iLoop := p.Ctrl(acc.Block)
	_ = iLoop
	var iID ir.CtrlID
	p.Walk(func(c *ir.Ctrl) {
		if c.Name == "i" {
			iID = c.ID
		}
	})
	setI := AddressSet(p, acc, iID)
	if len(setI) != 8 {
		t.Errorf("per-i addresses = %d, want 8", len(setI))
	}
}

func TestCheckBoundsCatchesOverflow(t *testing.T) {
	b := spatial.NewBuilder("oob")
	m := b.SRAM("m", 16)
	b.For("i", 0, 32, 1, 1, func(i spatial.Iter) {
		b.Block("w", func(blk *spatial.Block) {
			blk.Write(m, spatial.Affine(0, spatial.Term(i, 1))) // reaches 31 > 15
		})
	})
	p := b.MustBuild()
	// Addresses 16–31 are all outside; the error names the extreme one, so a
	// served 422 body is the same on every run.
	want := "interp: access W0.m reaches 31 outside m[0,16)"
	if err := CheckBounds(p); err == nil || err.Error() != want {
		t.Fatalf("CheckBounds = %v, want %q", err, want)
	}
}

// TestWorkloadsAddressSafe validates every benchmark: all statically
// analyzable accesses stay in bounds, and every credit the consistency pass
// relaxed is sound against enumerated address ground truth.
func TestWorkloadsAddressSafe(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(workloads.Params{Par: 16, Scale: 8})
			if err := CheckBounds(p); err != nil {
				t.Errorf("bounds: %v", err)
			}
			plan := consistency.Analyze(p, consistency.Options{})
			for _, v := range CheckRelaxations(p, plan) {
				t.Errorf("unsound relaxation: %s", v)
			}
		})
	}
}

func TestCheckRelaxationsFlagsUncovered(t *testing.T) {
	// Writer covers [0,8); reader reads [8,16): spans are equal (8), so the
	// span heuristic relaxes the credit — but the address SETS are disjoint,
	// which the ground-truth check must flag.
	b := spatial.NewBuilder("bad")
	m := b.SRAM("m", 32)
	b.For("a", 0, 4, 1, 1, func(a spatial.Iter) {
		b.For("i", 0, 8, 1, 1, func(i spatial.Iter) {
			b.Block("w", func(blk *spatial.Block) {
				blk.Write(m, spatial.Affine(0, spatial.Term(i, 1)))
			})
		})
		b.For("j", 0, 8, 1, 1, func(j spatial.Iter) {
			b.Block("r", func(blk *spatial.Block) {
				blk.Read(m, spatial.Affine(8, spatial.Term(j, 1)))
			})
		})
	})
	p := b.MustBuild()
	plan := consistency.Analyze(p, consistency.Options{})
	violations := CheckRelaxations(p, plan)
	if len(violations) == 0 {
		t.Skip("consistency pass did not relax this pair; nothing to flag")
	}
	found := false
	for _, v := range violations {
		if v.Uncovered >= 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an uncovered-address witness >= 8, got %v", violations)
	}
}
