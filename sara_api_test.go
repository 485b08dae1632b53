package sara_test

import (
	"testing"

	"sara"
	"sara/plasticine"
	"sara/spatial"
)

// buildPipeline is a small produce/consume program for facade tests.
func buildPipeline(par int) *spatial.Program {
	b := spatial.NewBuilder("pipe")
	x := b.DRAM("x", 1<<14)
	t := b.SRAM("t", 256)
	b.For("a", 0, 16, 1, 1, func(a spatial.Iter) {
		b.For("i", 0, 256, 1, 16, func(i spatial.Iter) {
			b.Block("load", func(blk *spatial.Block) {
				v := blk.Read(x, spatial.Streaming())
				blk.WriteFrom(t, spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		b.For("j", 0, 256, 1, par, func(j spatial.Iter) {
			b.Block("use", func(blk *spatial.Block) {
				v := blk.Read(t, spatial.Affine(0, spatial.Term(j, 1)))
				blk.Accum(blk.Op(spatial.OpMul, v, v))
			})
		})
	})
	return b.MustBuild()
}

func TestCompileAndSimulateBothEngines(t *testing.T) {
	d, err := sara.Compile(buildPipeline(16), sara.WithChip(plasticine.SARA20x20()))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cyc, err := d.Simulate(sara.EngineCycle)
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	ana, err := d.Simulate(sara.EngineAnalytic)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	if cyc.Cycles <= 0 || ana.Cycles <= 0 {
		t.Fatalf("cycles: cycle=%d analytic=%d", cyc.Cycles, ana.Cycles)
	}
	ratio := float64(ana.Cycles) / float64(cyc.Cycles)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("engines disagree: cycle=%d analytic=%d", cyc.Cycles, ana.Cycles)
	}
	if cyc.Resources.Total <= 0 {
		t.Error("no resources reported")
	}
	if r, err := d.Simulate(sara.Engine(7)); err == nil {
		t.Errorf("an out-of-range engine simulated: %+v", r)
	}
}

func TestOptionsChangeOutcome(t *testing.T) {
	base, err := sara.Compile(buildPipeline(16), sara.WithoutPlacement())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	noMerge, err := sara.Compile(buildPipeline(16), sara.WithoutPlacement(), sara.WithoutMerging())
	if err != nil {
		t.Fatalf("Compile no-merge: %v", err)
	}
	if noMerge.Resources().Total <= base.Resources().Total {
		t.Errorf("WithoutMerging should cost PUs: %d vs %d",
			noMerge.Resources().Total, base.Resources().Total)
	}
}

func TestConsistencySummaryExposed(t *testing.T) {
	d, err := sara.Compile(buildPipeline(1), sara.WithoutPlacement())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	raw, reduced := d.ConsistencySummary()
	if raw < reduced || reduced <= 0 {
		t.Errorf("consistency summary raw=%d reduced=%d", raw, reduced)
	}
	if d.Describe() == "" {
		t.Error("Describe returned nothing")
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	d, err := sara.Compile(buildPipeline(4))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pt := d.PhaseTimes()
	for _, phase := range []string{"consistency", "lower", "membank", "partition", "merge", "place"} {
		if _, ok := pt[phase]; !ok {
			t.Errorf("phase %q missing from PhaseTimes", phase)
		}
	}
}

func TestStrictCreditsSlower(t *testing.T) {
	relax, err := sara.Compile(buildPipeline(1), sara.WithoutPlacement())
	if err != nil {
		t.Fatal(err)
	}
	strict, err := sara.Compile(buildPipeline(1), sara.WithoutPlacement(), sara.WithoutCreditRelaxation())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := relax.Simulate(sara.EngineCycle)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := strict.Simulate(sara.EngineCycle)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles <= r1.Cycles {
		t.Errorf("strict credits (%d) should be slower than relaxed (%d)", r2.Cycles, r1.Cycles)
	}
}

func TestInterpreterMatchesHandComputation(t *testing.T) {
	const n = 16
	b := spatial.NewBuilder("sq")
	x := b.DRAM("x", n)
	y := b.DRAM("y", n)
	b.For("i", 0, n, 1, 1, func(i spatial.Iter) {
		b.Block("sq", func(blk *spatial.Block) {
			v := blk.Read(x, spatial.Streaming())
			s := blk.Op(spatial.OpMul, v, v)
			blk.WriteFrom(y, spatial.Streaming(), s)
		})
	})
	prog := b.MustBuild()

	it := sara.NewInterpreter(prog)
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i) - 4
	}
	if err := it.SetMem("x", in); err != nil {
		t.Fatal(err)
	}
	if err := it.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := it.Mem("y")
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i]*in[i] {
			t.Fatalf("y[%d] = %v, want %v", i, out[i], in[i]*in[i])
		}
	}
	// The same program also compiles and simulates.
	d, err := sara.Compile(prog, sara.WithoutPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Simulate(sara.EngineCycle); err != nil {
		t.Fatal(err)
	}
}

// TestDesignStoreRestoresAfterClose: a recompile through a design store
// reopened on the directory a closed one wrote restores every stage.
func TestDesignStoreRestoresAfterClose(t *testing.T) {
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		ds, err := sara.OpenDesignStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sara.Compile(buildPipeline(16), sara.WithDesignStore(ds))
		if err != nil {
			t.Fatalf("run %d: Compile: %v", run, err)
		}
		if err := ds.Close(); err != nil {
			t.Fatalf("run %d: Close: %v", run, err)
		}
		for stage, hit := range d.StageHits() {
			if hit != (run == 1) {
				t.Errorf("run %d: stage %s restored = %v", run, stage, hit)
			}
		}
		if len(d.StageHits()) == 0 {
			t.Fatalf("run %d: no stage went through the store", run)
		}
	}
}
