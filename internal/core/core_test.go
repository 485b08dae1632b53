package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/lower"
	"sara/internal/merge"
	"sara/internal/sim"
	"sara/spatial"
)

func testProg(par int) *ir.Program {
	b := spatial.NewBuilder("core")
	x := b.DRAM("x", 1<<16)
	t := b.SRAM("t", 512)
	b.For("a", 0, 8, 1, 1, func(a spatial.Iter) {
		b.For("i", 0, 512, 1, 16, func(i spatial.Iter) {
			b.Block("w", func(blk *spatial.Block) {
				v := blk.Read(x, spatial.Streaming())
				blk.WriteFrom(t, spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		b.For("j", 0, 512, 1, par, func(j spatial.Iter) {
			b.Block("r", func(blk *spatial.Block) {
				v := blk.Read(t, spatial.Affine(0, spatial.Term(j, 1)))
				blk.OpChain(spatial.OpFMA, 10)
				blk.Accum(v)
			})
		})
	})
	return b.MustBuild()
}

func TestCompileRunsEveryPhase(t *testing.T) {
	c, err := Compile(testProg(16), DefaultConfig())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, phase := range []string{"consistency", "lower", "opt-early", "membank", "partition", "opt-late", "merge", "place"} {
		if _, ok := c.PhaseTimes[phase]; !ok {
			t.Errorf("phase %q did not run", phase)
		}
	}
	if c.Placement == nil {
		t.Error("placement missing")
	}
	if c.CompileTime() <= 0 {
		t.Error("compile time not recorded")
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := ir.NewProgram("bad")
	l := p.AddCtrl(ir.CtrlLoop, "L", 0)
	l.Min, l.Max, l.Step, l.Trip = 0, 4, 1, 99 // inconsistent
	p.AddCtrl(ir.CtrlBlock, "b", l.ID)
	if _, err := Compile(p, DefaultConfig()); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestCompileDeterministic: two compiles of the same program produce
// identical graphs and resources — required for reproducible experiments.
func TestCompileDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	c1, err := Compile(testProg(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(testProg(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Resources() != c2.Resources() {
		t.Errorf("resources differ: %+v vs %+v", c1.Resources(), c2.Resources())
	}
	if len(c1.Lowered.G.LiveVUs()) != len(c2.Lowered.G.LiveVUs()) {
		t.Error("graph sizes differ across identical compiles")
	}
	r1, err := sim.Analytic(c1.Design())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Analytic(c2.Design())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("runtimes differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

// TestGraphStaysValidThroughPipeline compiles random programs and checks the
// final graph still satisfies every structural invariant — the composition
// property across all seven passes.
func TestGraphStaysValidThroughPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		par := 1 << rng.Intn(6)
		c, err := Compile(testProg(par), DefaultConfig())
		if err != nil {
			t.Fatalf("trial %d (par %d): %v", trial, par, err)
		}
		if err := c.Lowered.G.Validate(); err != nil {
			t.Errorf("trial %d: final graph invalid: %v", trial, err)
		}
		// Every live unit is assigned to a PU.
		for _, u := range c.Lowered.G.LiveVUs() {
			if _, ok := c.Merged.PUOf[u.ID]; !ok {
				t.Errorf("trial %d: unit %s unassigned", trial, u.Name)
			}
		}
		// Every PU slot has a placement coordinate.
		for id := range c.Merged.PUs {
			if _, ok := c.Placement.Coord[id]; !ok {
				t.Errorf("trial %d: PU %d unplaced", trial, id)
			}
		}
	}
}

func TestResourcesCountKinds(t *testing.T) {
	c, err := Compile(testProg(4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := c.Resources()
	if r.Total != r.PCU+r.PMU+r.AG {
		t.Errorf("total %d != %d+%d+%d", r.Total, r.PCU, r.PMU, r.AG)
	}
	tok := 0
	for _, e := range c.Lowered.G.LiveEdges() {
		if e.Kind == dfg.EToken {
			tok++
		}
	}
	if r.TokenStreams != tok {
		t.Errorf("token streams %d != %d", r.TokenStreams, tok)
	}
}

func TestScaledChipExtendsScaling(t *testing.T) {
	// A larger chip must fit designs the base chip cannot — the paper's
	// "will extract more performance on larger configurations" (§IV-A).
	small := arch.SARA20x20()
	small.NumPCU, small.NumPMU = 20, 20
	big := small.Scaled(4)
	cfg := DefaultConfig()
	cfg.Spec = small
	cfg.SkipPlace = true
	c, err := Compile(testProg(256), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Resources()
	fitsSmall := r.PCU <= small.NumPCU && r.PMU <= small.NumPMU
	fitsBig := r.PCU <= big.NumPCU && r.PMU <= big.NumPMU
	if fitsSmall {
		t.Skip("design unexpectedly fits the shrunken chip")
	}
	if !fitsBig {
		t.Errorf("4x chip should fit the par-256 design: %+v", r)
	}
}

// TestCompileFitHalvesUntilFit: CompileFit halves the factor after every
// design that does not fit, returns the first one that fits, returns the
// par-1 design when none fits, and stops at the first compile error.
func TestCompileFitHalvesUntilFit(t *testing.T) {
	g := dfg.NewGraph(testProg(1))
	// A stand-in design using par PCUs.
	fake := func(par int) *Compiled {
		m := &merge.Result{}
		for i := 0; i < par; i++ {
			m.PUs = append(m.PUs, merge.PU{Type: arch.PCU})
		}
		return &Compiled{Lowered: &lower.Result{G: g}, Merged: m}
	}
	for _, tc := range []struct {
		name    string
		numPCU  int
		failAt  int
		tried   []int
		wantPar int
	}{
		{"never fits", 0, 0, []int{192, 96, 48, 24, 12, 6, 3, 1}, 1},
		{"fits at 24", 24, 0, []int{192, 96, 48, 24}, 24},
		{"fits at once", 420, 0, []int{192}, 192},
		{"compile error", 0, 48, []int{192, 96, 48}, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := arch.SARA20x20()
			spec.NumPCU = tc.numPCU
			var tried []int
			c, par, err := CompileFit(192, spec, func(par int) (*Compiled, error) {
				tried = append(tried, par)
				if par == tc.failAt {
					return nil, errors.New("no design")
				}
				return fake(par), nil
			})
			if !reflect.DeepEqual(tried, tc.tried) || par != tc.wantPar {
				t.Fatalf("tried %v and returned par %d; want %v and %d", tried, par, tc.tried, tc.wantPar)
			}
			if (err != nil) != (tc.failAt != 0) {
				t.Fatalf("err = %v", err)
			}
			if err == nil && c.Resources().PCU != par {
				t.Errorf("returned the design of par %d, want %d", c.Resources().PCU, par)
			}
		})
	}
}
