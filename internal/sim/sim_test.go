package sim_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sara/internal/consistency"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/sim"
	"sara/spatial"
)

func compileAndRun(t *testing.T, p *ir.Program, cfg core.Config) (*sim.Result, *sim.Result) {
	t.Helper()
	c, err := core.Compile(p, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d := c.Design()
	cyc, err := sim.Cycle(d, 50_000_000)
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	ana, err := sim.Analytic(d)
	if err != nil {
		t.Fatalf("Analytic: %v", err)
	}
	return cyc, ana
}

// streamProg: DRAM -> multiply -> DRAM over n elements with inner par lanes.
func streamProg(n, par int) *ir.Program {
	b := spatial.NewBuilder("stream")
	x := b.DRAM("x", n)
	y := b.DRAM("y", n)
	b.For("i", 0, n, 1, par, func(i spatial.Iter) {
		b.Block("mul", func(blk *spatial.Block) {
			v := blk.Read(x, spatial.Streaming())
			m := blk.Op(spatial.OpMul, v, v)
			blk.WriteFrom(y, spatial.Streaming(), m)
		})
	})
	return b.MustBuild()
}

func TestCycleStreamCompletes(t *testing.T) {
	cyc, _ := compileAndRun(t, streamProg(1024, 1), core.DefaultConfig())
	// 1024 firings at II>=1 plus fill; must be within a small factor.
	if cyc.Cycles < 1024 {
		t.Errorf("cycles = %d, impossibly fast for 1024 sequential firings", cyc.Cycles)
	}
	if cyc.Cycles > 8*1024 {
		t.Errorf("cycles = %d, way beyond expected ~1k-3k", cyc.Cycles)
	}
}

func TestVectorizationSpeedsUp(t *testing.T) {
	c1, _ := compileAndRun(t, streamProg(4096, 1), core.DefaultConfig())
	c16, _ := compileAndRun(t, streamProg(4096, 16), core.DefaultConfig())
	speedup := float64(c1.Cycles) / float64(c16.Cycles)
	if speedup < 8 {
		t.Errorf("16-lane vectorization speedup = %.2fx, want >= 8x (c1=%d c16=%d)",
			speedup, c1.Cycles, c16.Cycles)
	}
}

// tiled producer/consumer with double buffering.
func tiledProg(tiles, tileSize, consPar int) *ir.Program {
	b := spatial.NewBuilder("tiled")
	x := b.DRAM("x", tiles*tileSize)
	tile := b.SRAM("tile", tileSize)
	out := b.Reg("out")
	b.For("a", 0, tiles, 1, 1, func(a spatial.Iter) {
		b.For("i", 0, tileSize, 1, 1, func(i spatial.Iter) {
			b.Block("load", func(blk *spatial.Block) {
				v := blk.Read(x, spatial.Streaming())
				blk.WriteFrom(tile, spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		b.For("j", 0, tileSize, 1, consPar, func(j spatial.Iter) {
			b.Block("mac", func(blk *spatial.Block) {
				v := blk.Read(tile, spatial.Affine(0, spatial.Term(j, 1)))
				m := blk.Op(spatial.OpMul, v, v)
				s := blk.Accum(m)
				blk.WriteFrom(out, spatial.Constant(0), s)
			})
		})
	})
	return b.MustBuild()
}

func TestDoubleBufferingOverlapsStages(t *testing.T) {
	// With relaxed credits (double buffering) producer and consumer overlap:
	// runtime ~ max(stage times); with strict credits they serialize:
	// runtime ~ sum + round trips. The strict version must be measurably
	// slower.
	relaxed := core.DefaultConfig()
	cR, _ := compileAndRun(t, tiledProg(16, 256, 1), relaxed)

	strict := core.DefaultConfig()
	strict.Consistency = consistency.Options{DisableCreditRelaxation: true}
	cS, _ := compileAndRun(t, tiledProg(16, 256, 1), strict)

	if float64(cS.Cycles) < 1.3*float64(cR.Cycles) {
		t.Errorf("strict credits (%d) should be >=1.3x slower than double buffering (%d)",
			cS.Cycles, cR.Cycles)
	}
}

func TestAnalyticTracksCycleEngine(t *testing.T) {
	cases := []struct {
		name string
		prog *ir.Program
	}{
		{"stream1", streamProg(2048, 1)},
		{"stream16", streamProg(4096, 16)},
		{"tiled", tiledProg(8, 256, 1)},
		{"tiledvec", tiledProg(8, 256, 16)},
	}
	for _, tc := range cases {
		cyc, ana := compileAndRun(t, tc.prog, core.DefaultConfig())
		ratio := float64(ana.Cycles) / float64(cyc.Cycles)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: analytic %d vs cycle %d (ratio %.2f) out of validation band",
				tc.name, ana.Cycles, cyc.Cycles, ratio)
		}
	}
}

func TestUnrolledConsumerScales(t *testing.T) {
	// Spatially unrolling the consumer 4x with memory banking should cut the
	// consumer-bound runtime substantially.
	prog := func(par int) *ir.Program {
		b := spatial.NewBuilder("unroll")
		x := b.DRAM("x", 64*64)
		tile := b.SRAM("tile", 4096)
		b.For("a", 0, 4, 1, 1, func(a spatial.Iter) {
			b.For("i", 0, 4096, 1, 16, func(i spatial.Iter) {
				b.Block("load", func(blk *spatial.Block) {
					v := blk.Read(x, spatial.Streaming())
					blk.WriteFrom(tile, spatial.Affine(0, spatial.Term(i, 1)), v)
				})
			})
			b.For("j", 0, 64, 1, par, func(j spatial.Iter) {
				b.For("k", 0, 64, 1, 1, func(k spatial.Iter) {
					b.Block("work", func(blk *spatial.Block) {
						v := blk.Read(tile, spatial.Affine(0, spatial.Term(j, 64), spatial.Term(k, 1)))
						blk.OpChain(spatial.OpFMA, 4)
						blk.Accum(v)
					})
				})
			})
		})
		return b.MustBuild()
	}
	c1, _ := compileAndRun(t, prog(1), core.DefaultConfig())
	c4, _ := compileAndRun(t, prog(4), core.DefaultConfig())
	speedup := float64(c1.Cycles) / float64(c4.Cycles)
	if speedup < 2 {
		t.Errorf("4x unroll speedup = %.2fx, want >= 2x (c1=%d c4=%d)", speedup, c1.Cycles, c4.Cycles)
	}
}

func TestBranchProgramRuns(t *testing.T) {
	b := spatial.NewBuilder("branch")
	m := b.SRAM("mem", 64)
	b.For("a", 0, 16, 1, 1, func(a spatial.Iter) {
		b.If("even",
			func(blk *spatial.Block) { blk.Op(spatial.OpCmp, spatial.External) },
			func() {
				b.For("d", 0, 64, 1, 1, func(d spatial.Iter) {
					b.Block("w", func(blk *spatial.Block) {
						blk.Write(m, spatial.Affine(0, spatial.Term(d, 1)))
					})
				})
			},
			func() {
				b.For("f", 0, 64, 1, 1, func(f spatial.Iter) {
					b.Block("r", func(blk *spatial.Block) {
						blk.Read(m, spatial.Affine(0, spatial.Term(f, 1)))
					})
				})
			})
	})
	cyc, ana := compileAndRun(t, b.MustBuild(), core.DefaultConfig())
	if cyc.Cycles <= 0 || ana.Cycles <= 0 {
		t.Fatalf("branch program did not run: cycle=%d analytic=%d", cyc.Cycles, ana.Cycles)
	}
}

func TestWhileLoopSerializesIterations(t *testing.T) {
	b := spatial.NewBuilder("while")
	st := b.SRAM("state", 16)
	b.While("conv", 64, func(i spatial.Iter) {
		b.Block("body", func(blk *spatial.Block) {
			v := blk.Read(st, spatial.Streaming())
			n := blk.Op(spatial.OpFMA, v, v, v)
			blk.WriteFrom(st, spatial.Streaming(), n)
		})
	}, func(blk *spatial.Block) {
		v := blk.Read(st, spatial.Streaming())
		blk.Op(spatial.OpCmp, v)
	})
	cyc, _ := compileAndRun(t, b.MustBuild(), core.DefaultConfig())
	// 64 iterations, each gated by a condition round trip: the runtime must
	// reflect the long initiation interval, far above 64 cycles.
	if cyc.Cycles < 300 {
		t.Errorf("do-while ran in %d cycles; expected serialized iterations (>300)", cyc.Cycles)
	}
}

// TestRandomProgramsNeverDeadlock is the pipeline's core liveness property:
// any valid frontend program must compile and drain to completion, and the
// fast-forward must not change how. The last trials, from their own seed,
// run trips in the thousands, long enough for the fast-forward to jump, so
// the check covers jumps too.
func TestRandomProgramsNeverDeadlock(t *testing.T) {
	var skipped, spanned int64
	run := func(name string, p *ir.Program) {
		c, err := core.Compile(p, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		span, err := assertFastForwardExact(t, c.Design(), 20_000_000)
		if err != nil {
			t.Errorf("%s (%s): %v", name, p.Name, err)
		}
		skipped, spanned = skipped+span.Skipped, spanned+span.Spanned
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		run("trial "+itoa(trial), randomProgram(rng, 1))
	}
	long := rand.New(rand.NewSource(1047))
	for trial := 0; trial < 3; trial++ {
		run("long trial "+itoa(trial), randomProgram(long, 64))
	}
	t.Logf("skipped %d of %d cycles", skipped, spanned)
	if skipped == 0 {
		t.Error("the fast-forward never jumped")
	}
}

// randomProgram generates a small random nested pipeline over shared SRAMs.
// Every trip, and the memories it walks, is scale times the drawn one.
func randomProgram(rng *rand.Rand, scale int) *ir.Program {
	b := spatial.NewBuilder("rand")
	nMems := 1 + rng.Intn(3)
	mems := make([]*spatial.Mem, nMems)
	for i := range mems {
		mems[i] = b.SRAM("m", 64*scale)
	}
	x := b.DRAM("x", 1<<16)
	b.For("outer", 0, (2+rng.Intn(4))*scale, 1, 1, func(o spatial.Iter) {
		nStages := 2 + rng.Intn(3)
		for s := 0; s < nStages; s++ {
			par := 1
			if rng.Intn(3) == 0 {
				par = 1 << rng.Intn(3)
			}
			mem := mems[rng.Intn(nMems)]
			write := s%2 == 0
			b.For("l", 0, (16+rng.Intn(48))*scale, 1, par, func(l spatial.Iter) {
				b.Block("blk", func(blk *spatial.Block) {
					if write {
						v := blk.Read(x, spatial.Streaming())
						blk.WriteFrom(mem, spatial.Affine(0, spatial.Term(l, 1)), v)
					} else {
						v := blk.Read(mem, spatial.Affine(0, spatial.Term(l, 1)))
						blk.OpChain(spatial.OpAdd, 1+rng.Intn(8))
						blk.Accum(v)
					}
				})
			})
		}
	})
	return b.MustBuild()
}

// TestRandomControlFlowNeverDeadlocks extends the liveness fuzz to the full
// control-construct repertoire: outer branches, do-while loops, and
// dynamically bounded loops, nested over shared scratchpads. Here too the
// fast-forward must not change the outcome, and the last trials, from their
// own seed, run trips in the thousands, so it jumps.
func TestRandomControlFlowNeverDeadlocks(t *testing.T) {
	var skipped, spanned int64
	run := func(name string, p *ir.Program) {
		c, err := core.Compile(p, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		span, err := assertFastForwardExact(t, c.Design(), 20_000_000)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		skipped, spanned = skipped+span.Skipped, spanned+span.Spanned
		if _, err := sim.Analytic(c.Design()); err != nil {
			t.Errorf("%s analytic: %v", name, err)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		run("trial "+itoa(trial), randomControlProgram(rng, 1))
	}
	long := rand.New(rand.NewSource(1041))
	for trial := 0; trial < 3; trial++ {
		run("long trial "+itoa(trial), randomControlProgram(long, 64))
	}
	t.Logf("skipped %d of %d cycles", skipped, spanned)
	if skipped == 0 {
		t.Error("the fast-forward never jumped")
	}
}

// randomControlProgram generates nested control flow with branches, while
// loops, and dynamic bounds. Every trip, and the memory, is scale times
// the drawn one.
func randomControlProgram(rng *rand.Rand, scale int) *ir.Program {
	b := spatial.NewBuilder("ctrlrand")
	mem := b.SRAM("m", 64*scale)
	x := b.DRAM("x", 1<<16)

	writeBlk := func(name string, it spatial.Iter) {
		b.Block(name, func(blk *spatial.Block) {
			v := blk.Read(x, spatial.Streaming())
			blk.WriteFrom(mem, spatial.Affine(0, spatial.Term(it, 1)), v)
		})
	}
	readBlk := func(name string, it spatial.Iter) {
		b.Block(name, func(blk *spatial.Block) {
			v := blk.Read(mem, spatial.Affine(0, spatial.Term(it, 1)))
			blk.OpChain(spatial.OpAdd, 1+rng.Intn(6))
			blk.Accum(v)
		})
	}

	b.For("outer", 0, (2+rng.Intn(3))*scale, 1, 1, func(o spatial.Iter) {
		switch rng.Intn(3) {
		case 0:
			// Branch whose clauses write and read the shared memory.
			b.If("br",
				func(blk *spatial.Block) { blk.Op(spatial.OpCmp, spatial.External) },
				func() {
					b.For("d", 0, (8+rng.Intn(24))*scale, 1, 1, func(d spatial.Iter) { writeBlk("bw", d) })
				},
				func() {
					b.For("f", 0, (8+rng.Intn(24))*scale, 1, 1, func(f spatial.Iter) { readBlk("br2", f) })
				})
		case 1:
			// Do-while whose condition depends on state the body writes.
			b.While("wh", (4+rng.Intn(12))*scale, func(i spatial.Iter) {
				b.Block("whbody", func(blk *spatial.Block) {
					v := blk.Read(mem, spatial.Streaming())
					n := blk.Op(spatial.OpFMA, v, v, v)
					blk.WriteFrom(mem, spatial.Streaming(), n)
				})
			}, func(blk *spatial.Block) {
				v := blk.Read(mem, spatial.Streaming())
				blk.Op(spatial.OpCmp, v)
			})
		default:
			// Dynamically bounded loop over the memory.
			b.ForDyn("dyn", (4+rng.Intn(12))*scale, 1,
				func(blk *spatial.Block) { blk.Op(spatial.OpRand) },
				func(i spatial.Iter) { readBlk("dynr", i) })
		}
		// A plain pipeline stage keeps the memory busy between constructs.
		b.For("w", 0, 16*scale, 1, 1, func(w spatial.Iter) { writeBlk("pw", w) })
		b.For("r", 0, 16*scale, 1, 1, func(r spatial.Iter) { readBlk("prd", r) })
	})
	return b.MustBuild()
}

// TestWhileInsideForLoop exercises a do-while nested under a counted loop —
// the convergence-inside-batch shape (e.g. per-sample iterative solves).
func TestWhileInsideForLoop(t *testing.T) {
	b := spatial.NewBuilder("nestwhile")
	st := b.SRAM("state", 8)
	x := b.DRAM("x", 1<<12)
	b.For("s", 0, 8, 1, 1, func(s spatial.Iter) {
		b.Block("init", func(blk *spatial.Block) {
			v := blk.Read(x, spatial.Streaming())
			blk.WriteFrom(st, spatial.Streaming(), v)
		})
		b.While("solve", 12, func(i spatial.Iter) {
			b.Block("step", func(blk *spatial.Block) {
				v := blk.Read(st, spatial.Streaming())
				n := blk.Op(spatial.OpFMA, v, v, v)
				blk.WriteFrom(st, spatial.Streaming(), n)
			})
		}, func(blk *spatial.Block) {
			v := blk.Read(st, spatial.Streaming())
			blk.Op(spatial.OpCmp, v)
		})
	})
	cyc, ana := compileAndRun(t, b.MustBuild(), core.DefaultConfig())
	// 8 samples × 12 serialized inner iterations: well above 96 cycles.
	if cyc.Cycles < 400 {
		t.Errorf("nested do-while ran in %d cycles; expected serialization", cyc.Cycles)
	}
	if ana.Cycles <= 0 {
		t.Error("analytic failed on nested do-while")
	}
}

// TestSimRefusesOffGridBandwidth: a DRAM bandwidth the integer channel time
// cannot hold, in a spec no one validated (the design store and a peer
// decode specs as they were written), is an error from every cycle-level
// entry point, not a panic or a run on a rounded clock.
func TestSimRefusesOffGridBandwidth(t *testing.T) {
	for _, bw := range []float64{62.3, math.NaN(), math.Inf(1)} {
		d := twoStreamDesign(2)
		d.Spec.DRAM.BytesPerCyclePerChannel = bw
		for _, kind := range []sim.EngineKind{sim.EngineEvent, sim.EngineDense} {
			if _, err := sim.CycleEngine(d, 1_000_000, kind); err == nil || !strings.Contains(err.Error(), "DRAM bandwidth") {
				t.Errorf("%v B/cycle on engine %d: %v, want a refused bandwidth", bw, kind, err)
			}
		}
		if _, _, err := sim.CycleProfiled(d, 1_000_000, sim.EngineEvent); err == nil {
			t.Errorf("%v B/cycle profiled: ran", bw)
		}
		if _, _, err := sim.CycleWithTrace(d, 1_000_000); err == nil {
			t.Errorf("%v B/cycle traced: ran", bw)
		}
	}
}
