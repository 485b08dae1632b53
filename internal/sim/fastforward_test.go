package sim_test

import (
	"reflect"
	"testing"
	"time"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/dfg"
	"sara/internal/eval"
	"sara/internal/ir"
	"sara/internal/partition"
	"sara/internal/sim"
	"sara/internal/workloads"
)

// assertFastForwardExact runs d on the event engine with and without the
// steady-state fast-forward and requires a reflect.DeepEqual Result or a
// byte-identical error, and a completed run no shorter than sim.Floor. It
// returns the fast-forward run's Span (Spanned 0 when the run failed) and its
// error.
func assertFastForwardExact(t *testing.T, d *sim.Design, maxCycles int64) (sim.Span, error) {
	t.Helper()
	fast, span, err := sim.CycleEventSpan(d, maxCycles)
	slow, slowErr := sim.CycleEngineNoFastPath(d, maxCycles)
	switch {
	case err != nil || slowErr != nil:
		if err == nil || slowErr == nil || err.Error() != slowErr.Error() {
			t.Errorf("outcomes differ:\n fast-forward: %v\n reference:    %v", err, slowErr)
		}
		span.Spanned = 0
	case !reflect.DeepEqual(fast, slow):
		t.Errorf("Results differ:\n fast-forward: %+v\n reference:    %+v", fast, slow)
	default:
		assertFloorHolds(t, d, slow.Cycles)
	}
	return span, err
}

// solverConfig compiles the way the benchmark's solver workload does: MIP
// partition and merge, each capped at 60 branch-and-bound nodes.
func solverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Partition.Algo, cfg.Merge.Algo = partition.AlgoSolver, partition.AlgoSolver
	cfg.Partition.Gap, cfg.Merge.Gap = 0.15, 0.15
	cfg.Partition.MaxNodes, cfg.Merge.MaxNodes = 60, 60
	cfg.Partition.TimeLimit, cfg.Merge.TimeLimit = 10*time.Minute, 10*time.Minute
	return cfg
}

// TestFastForwardExact is the fast-forward's guard: on every design the
// benchmark simulates for long, on mlp p16/s1 and Table VI's ms, sort and
// lstm points, on the deadlocking designs, on a design whose second phase
// alone repeats, and under a cycle cap inside a skipped stretch, the run
// must be indistinguishable from one without it. Every kernels design must
// also skip about as much as the detector reaches (logreg and pr at p64/s8
// skip only by capturing states whose DRAM channels are still busy; gda and
// kmeans at p64 and snet by jumping over drifts), and so must the long rf
// runs. The engine visits of the benchmark's 16 kernels designs, of its 12
// serve-hot designs and of rf p128/s8 alone have ceilings a little above
// what the detector leaves (4.26 M, 0.40 M and 1.21 M), so a change that
// visits more shows here without host time. rf p128/s8 and mlp p16/s1 are
// the compiled designs on which a jump must shift the queues of busy DRAM
// channels.
func TestFastForwardExact(t *testing.T) {
	const maxCycles = 30_000_000
	type design struct {
		group, name string
		par, scale  int
		mustSkip    int64 // percent of the spanned cycles skipped, at least
		long        bool  // over 2 s for both runs: skipped under -short
	}
	// The kernels designs' floors sit about 3 points under the shares the
	// detector reaches, so a change that skips less shows here first. rf
	// p128/s8 runs through eight phases, one per tree instance completing;
	// its first repeats every 11 517 cycles from about cycle 18 565, and it
	// skips 73 % when each checkpoint is dropped at the end of its window.
	// gda p64 skips 39 % and snet p64 and p128 2 % and 0 % unless the jump
	// carries drifting buffers and inner loops along.
	floors := map[string]int64{
		"bs/p64": 64, "gda/p64": 88, "kmeans/p64": 84, "logreg/p64": 89, "mlp/p64": 33,
		"ms/p64": 38, "pr/p64": 96, "rf/p64": 93, "sgd/p64": 89, "snet/p64": 62, "sort/p32": 66,
		"kmeans/p128": 72, "mlp/p128": 14, "snet/p128": 48, "rf/p128": 79, "mlp/p16": 92,
	}
	const rfP128Visits = 1_250_000
	// Σ engine visits and captures compared over a group's n designs, and
	// the ceiling on its visits.
	type sums struct {
		n, ran                    int
		ceiling, visits, compared int64
	}
	groups := map[string]*sums{
		"kernels":   {n: 16, ceiling: 4_400_000},
		"serve-hot": {n: len(workloads.Names()), ceiling: 420_000},
	}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{"kernels", name, par, 8, floors[name+"/p"+itoa(par)], false})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{"kernels", name, 128, 8, floors[name+"/p128"], false})
	}
	ds = append(ds, design{"kernels", "mlp", 16, 1, floors["mlp/p16"], true})
	// Table VI's points, as eval.Table6 compiles them (par is the default
	// it starts its fit from).
	for _, name := range []string{"ms", "sort", "lstm"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, design{"table6", name, w.DefaultPar, 1, 0, false})
	}
	ds = append(ds, design{"solver", "rf", 16, 16, 80, false}, design{"solver", "rf", 32, 16, 80, false},
		design{"solver", "ms", 16, 16, 0, false}, design{"solver", "rf", 64, 32, 0, false},
		design{"solver", "ms", 32, 16, 0, false}, design{"solver", "ms", 64, 16, 0, false})
	for _, name := range workloads.Names() {
		var floor int64
		if name == "rf" {
			floor = 80
		}
		ds = append(ds, design{"serve-hot", name, 8, 16, floor, false})
	}
	for _, k := range ds {
		k := k
		t.Run(k.group+"/"+k.name+"/p"+itoa(k.par), func(t *testing.T) {
			if k.long && testing.Short() {
				t.Skip("over 2 s; runs without -short")
			}
			var d *sim.Design
			switch k.group {
			case "solver":
				w, err := workloads.ByName(k.name)
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(w.Build(workloads.Params{Par: k.par, Scale: k.scale}), solverConfig())
				if err != nil {
					t.Fatal(err)
				}
				d = c.Design()
			case "table6":
				w, err := workloads.ByName(k.name)
				if err != nil {
					t.Fatal(err)
				}
				c, _, err := eval.Table6Design(w)
				if err != nil {
					t.Fatal(err)
				}
				d = c.Design()
			default:
				d = compilePlaced(t, k.name, k.par, k.scale)
			}
			span, _ := assertFastForwardExact(t, d, maxCycles)
			checkSkipped(t, "", span, k.mustSkip)
			if g := groups[k.group]; g != nil && !k.long {
				g.ran++
				g.visits += span.Work
				g.compared += span.Compared
			}
			if k.group == "kernels" && k.name == "rf" && k.par == 128 && span.Work > rfP128Visits {
				t.Errorf("%d engine visits, want at most %d", span.Work, rfP128Visits)
			}
		})
	}
	for _, name := range []string{"kernels", "serve-hot"} {
		g := groups[name]
		if g.ran != g.n {
			continue
		}
		t.Logf("%s: %d engine visits and %d captures compared over %d designs", name, g.visits, g.compared, g.n)
		if g.visits > g.ceiling {
			t.Errorf("%s: %d engine visits over %d designs, want at most %d", name, g.visits, g.n, g.ceiling)
		}
	}
	t.Run("deadlock", func(t *testing.T) {
		assertFastForwardExact(t, deadlockDesign(), 1_000_000)
		assertFastForwardExact(t, bankStarvedDesign(), 1_000_000)
		assertFastForwardExact(t, fullBufferDeadlockDesign(), 1_000_000)
		for limit := int64(9); limit <= 15; limit++ {
			assertFastForwardExact(t, drainedSinkDesign(), limit)
		}
		assertFastForwardExact(t, compilePlaced(t, "kmeans", 96, 16), maxCycles)
		assertFastForwardExact(t, compilePlaced(t, "rf", 48, 64), maxCycles)
	})
	// A read stream that saturates its channel keeps a bounded queue, so it
	// must skip, and every request after a jump lands on the shifted queue.
	// A write stream that outpaces its channel grows its backlog by a few
	// ticks each period while every other word of the state repeats, so a
	// jump that ignored the backlog would drop the queueing the skipped
	// periods add.
	t.Run("busy-channel", func(t *testing.T) {
		d := saturatedReadDesign()
		span, _ := assertFastForwardExact(t, d, 1_000_000)
		checkSkipped(t, "saturated read: ", span, 40)
		// 20 000 reads of 96 B at 62.5 B a cycle: the read term, not the
		// firing term, bounds the run's 30 851 cycles.
		if f, err := sim.Floor(d); err != nil || f != 30_720 {
			t.Errorf("saturated read: floor %d (%v), want the read term 30720", f, err)
		}
		span, _ = assertFastForwardExact(t, oversubscribedWriteDesign(), 1_000_000)
		checkSkipped(t, "oversubscribed write: ", span, 0)
	})
	// One producer completes mid-run and the rest settle into a new period.
	// The first phase never repeats, so every skipped cycle is the second
	// phase's: the search must restart at the completion rather than carry
	// the limit the first phase drove up.
	t.Run("two-phase", func(t *testing.T) {
		span, _ := assertFastForwardExact(t, twoPhaseDesign(), 1_000_000)
		checkSkipped(t, "", span, 45)
	})
	// The state repeats from a few firings in, just after one of the
	// search's first checkpoints (at the anchor's 8th firing), with a period
	// of 210 firings, far longer than that checkpoint's window. A search that
	// drops each checkpoint when its window ends first sees a repeat at the
	// 450th firing, too late in a run of 630 to jump at all; one that keeps
	// the checkpoint sees it at the 218th and skips a period.
	t.Run("long-period", func(t *testing.T) {
		span, _ := assertFastForwardExact(t, longPeriodDesign(), 1_000_000)
		checkSkipped(t, "", span, 30)
	})
	// rf p8/s16 runs 950 629 cycles and skips most of them; a cap of 700 000
	// falls inside the longest skipped stretch, so the jump must stop short
	// of it and the run end in the same "exceeded" error.
	t.Run("cap", func(t *testing.T) {
		d := compilePlaced(t, "rf", 8, 16)
		if span, _ := assertFastForwardExact(t, d, 700_000); span.Skipped == 0 {
			t.Error("no cycle skipped before the cap")
		}
		if _, err := sim.CycleEngine(d, 700_000, sim.EngineEvent); err == nil ||
			err.Error() != "sim: exceeded 700000 cycles without completing" {
			t.Errorf("capped run: %v", err)
		}
	})
}

// TestEarlyExitMatchesFullWalk holds the fast-forward's word-by-word
// comparison, which stops at the first differing word that is not a drift,
// to a full walk of the same state classified by the same rule: at every
// compared capture of every kernels design and of rf p8/s16, the verdict
// must be the full walk's, and a repeat's drifts must be the full walk's
// and the only words, each off by its delta, in which the full walk
// differs from the checkpoint. Both go through one walk (the wrapped VMU
// port positions included), so what this holds is the early exit itself:
// the word count, the stop, the drifts noted before it, and the verdict at
// the end. Some compared capture must repeat, and some repeat must drift.
func TestEarlyExitMatchesFullWalk(t *testing.T) {
	type design struct {
		name       string
		par, scale int
	}
	var ds []design
	for _, name := range workloads.Names() {
		par := 64
		if name == "sort" {
			par = 32
		}
		ds = append(ds, design{name, par, 8})
	}
	for _, name := range []string{"kmeans", "mlp", "snet", "rf"} {
		ds = append(ds, design{name, 128, 8})
	}
	ds = append(ds, design{"rf", 8, 16})
	var ran, equal, drifting int
	for _, k := range ds {
		t.Run(k.name+"/p"+itoa(k.par)+"/s"+itoa(k.scale), func(t *testing.T) {
			n, err := sim.CycleEventCheckWalks(compilePlaced(t, k.name, k.par, k.scale), 30_000_000)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d captures compared word by word, %d equal to the checkpoint, %d of them but for drifts",
				n.Compared, n.Equal, n.Drifting)
			if n.Wrong > 0 {
				t.Errorf("%d of %d early-exit verdicts differ from the full walk's", n.Wrong, n.Compared)
			}
			ran++
			equal += n.Equal
			drifting += n.Drifting
		})
	}
	if ran == len(ds) && equal == 0 {
		t.Error("no compared capture equalled its checkpoint: the check never saw a repeat")
	}
	if ran == len(ds) && drifting == 0 {
		t.Error("no compared capture drifted from its checkpoint: the check never saw a drift")
	}
}

// checkSkipped logs what the fast-forward did in span, prefixed by what, and
// fails the test when it skipped less than floor percent of the spanned
// cycles. Jumps, engine visits, the captures compared and the words they
// walked are counts, so two detectors compare by them without host time.
func checkSkipped(t *testing.T, what string, span sim.Span, floor int64) {
	t.Helper()
	t.Logf("%sskipped %d of %d cycles in %d jumps (%d over drifts), %d engine visits, %d captures compared, %d words walked",
		what, span.Skipped, span.Spanned, span.Jumps, span.Drifts, span.Work, span.Compared, span.Walked)
	if 100*span.Skipped < floor*span.Spanned {
		t.Errorf("%sskipped %d of %d cycles, want at least %d%%", what, span.Skipped, span.Spanned, floor)
	}
}

// twoPhaseDesign feeds one sink from two producers through one banked group
// (Edge.Group), each producer paced by a token loop back to itself. fast has
// 40×127 firings, one every 11 cycles, and completes near cycle 56 000;
// slow has 20×128, one every 49 cycles, and runs to cycle 125 441. While
// both run, the inner levels turn at coprime trips and rates, so the state
// never repeats; once fast is done, slow's inner level repeats every 128
// firings. slow has the fewest firings, so it is the anchor throughout.
func twoPhaseDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	snk := g.AddVU(dfg.VCUCompute, "snk")
	snk.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 40*127 + 20*128}}
	fast := g.AddVU(dfg.VCUCompute, "fast")
	fast.Stages = 1
	fast.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 40}, {Ctrl: ir.CtrlID(3), Trip: 127}}
	slow := g.AddVU(dfg.VCUCompute, "slow")
	slow.Stages = 39
	slow.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(4), Trip: 20}, {Ctrl: ir.CtrlID(5), Trip: 128}}
	for _, p := range []*dfg.VU{fast, slow} {
		g.AddEdge(p.ID, snk.ID, dfg.EData).Group = "in"
		loop := g.AddEdge(p.ID, p.ID, dfg.EToken)
		loop.LCD, loop.Init, loop.Depth = true, 1, 1
	}
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// longPeriodDesign chains four units, each paced to one firing every 11
// cycles and each with an inner loop of 2, 3, 5 or 7, through 4-deep
// buffers. Every inner level wraps within seven firings, so no level can
// drift across a period, and the state repeats every lcm(2, 3, 5, 7) = 210
// firings, three times over the run's 630.
func longPeriodDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	var prev *dfg.VU
	for i, trip := range []int{2, 3, 5, 7} {
		u := pacedUnit(g, "u"+itoa(i), 1, ir.CtrlID(10*i+1), 630/trip, trip)
		if prev != nil {
			g.AddEdge(prev.ID, u.ID, dfg.EData).Depth = 4
		}
		prev = u
	}
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// dramStream adds a streaming access of direction dir to a DRAM tensor of
// g's program and returns it, for a hand-built VAG to serve: the simulator
// takes a VAG's direction and pattern from its access, and sim.Floor counts
// only read streams.
func dramStream(g *dfg.Graph, dir ir.Dir, name string) ir.AccessID {
	p := g.Prog
	m := p.AddMem(ir.MemDRAM, name, 1<<20)
	a := &ir.Access{ID: ir.AccessID(len(p.Accs)), Mem: m.ID, Dir: dir, Pat: ir.Pattern{Kind: ir.PatStreaming}, Vec: 1, Name: name}
	p.Accs = append(p.Accs, a)
	return a.ID
}

// saturatedReadDesign streams 20 000 reads of 24 lanes (96 B, 1.536 cycles
// of an HBM2 channel) from one VAG to a consumer. The VAG could issue every
// cycle, so its channel stays busy, with as many requests queued as the
// VAG's response buffer admits.
func saturatedReadDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	ag := g.AddVU(dfg.VAG, "rd")
	ag.Lanes = 24
	ag.Acc = dramStream(g, ir.Read, "rd")
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 20000}}
	use := g.AddVU(dfg.VCUCompute, "use")
	use.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 20000}}
	g.AddEdge(ag.ID, use.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// oversubscribedWriteDesign streams 5 000 writes of 48 lanes (192 B, 3.072
// cycles of an HBM2 channel) into one VAG whose acknowledgements nothing
// waits for. The VAG issues about every 2.75 cycles, so its channel's queue
// grows without bound.
func oversubscribedWriteDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := g.AddVU(dfg.VCUCompute, "src")
	src.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 5000}}
	ag := g.AddVU(dfg.VAG, "wr")
	ag.Lanes = 48
	ag.Acc = dramStream(g, ir.Write, "wr")
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(2), Trip: 5000}}
	g.AddEdge(src.ID, ag.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// TestFastForwardDrift holds the fast-forward to the reference on the
// shapes of drifting steady state, where every word of the state repeats
// each period but a buffer's occupancy or a long inner loop's position,
// which moves by a fixed amount: a DRAM-fed buffer that fills, one that
// drains, a unit with a long inner loop, and a buffer that drains to empty
// between bursts while a long inner loop runs beside it. Each must jump
// over its drift at least once.
func TestFastForwardDrift(t *testing.T) {
	for _, k := range []struct {
		name string
		d    *sim.Design
	}{{"fill", fillingBufferDesign()}, {"drain", drainingBufferDesign()}, {"inner-loop", longInnerLoopDesign()},
		{"burst", burstDrainDesign()}} {
		t.Run(k.name, func(t *testing.T) {
			span, _ := assertFastForwardExact(t, k.d, 1_000_000)
			checkSkipped(t, "", span, 0)
			if span.Drifts == 0 {
				t.Errorf("no jump over a drift in %d jumps", span.Jumps)
			}
		})
	}
}

// pacedUnit adds a compute unit with the given counters that fires at most
// once every stages+10 cycles: a token loop back to itself, one token deep,
// gates each firing on the last one's token.
func pacedUnit(g *dfg.Graph, name string, stages int, ctrl ir.CtrlID, trips ...int) *dfg.VU {
	u := g.AddVU(dfg.VCUCompute, name)
	u.Stages = stages
	for i, trip := range trips {
		u.Counters = append(u.Counters, dfg.Counter{Ctrl: ctrl + ir.CtrlID(i), Trip: trip})
	}
	loop := g.AddEdge(u.ID, u.ID, dfg.EToken)
	loop.LCD, loop.Init, loop.Depth = true, 1, 1
	return u
}

// fillingBufferDesign paces 6 000 reads at one every 19 cycles into a
// consumer that takes one every 20, four to an inner loop. The response
// buffer (4 deep, plus the DRAM round trip the AG covers) gains about one
// element every 380 cycles until it is full and backpressure sets the pace.
func fillingBufferDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := pacedUnit(g, "src", 9, 1, 6000)
	ag := g.AddVU(dfg.VAG, "rd")
	ag.Lanes, ag.Acc = 16, dramStream(g, ir.Read, "rd")
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(10), Trip: 6000}}
	use := pacedUnit(g, "use", 10, 20, 1500, 4)
	g.AddEdge(src.ID, ag.ID, dfg.EData).Depth = 4
	g.AddEdge(ag.ID, use.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// drainingBufferDesign issues 3 000 reads as fast as its channel allows
// into a 1 000-deep response buffer whose consumer takes one every 11
// cycles. Once the AG has issued its last read, the buffer drains by one
// element a firing for about 13 000 cycles.
func drainingBufferDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	ag := g.AddVU(dfg.VAG, "rd")
	ag.Lanes, ag.Acc = 16, dramStream(g, ir.Read, "rd")
	ag.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(1), Trip: 3000}}
	use := pacedUnit(g, "use", 1, 10, 750, 4)
	g.AddEdge(ag.ID, use.ID, dfg.EData).Depth = 1000
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// longInnerLoopDesign runs a producer of 3 × 4 000 firings, one every 11
// cycles, into a sink. Every word of the state repeats each firing but the
// producer's inner level, which counts up to 3 999 before it wraps.
func longInnerLoopDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	src := pacedUnit(g, "src", 1, 1, 3, 4000)
	snk := g.AddVU(dfg.VCUCompute, "snk")
	snk.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(10), Trip: 12000}}
	g.AddEdge(src.ID, snk.ID, dfg.EData).Depth = 4
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}

// burstDrainDesign runs 40 rounds of a burst and a drain. q fires once
// every 44 cycles; each time its 20-firing inner loop wraps, it hands p a
// token, and p writes 40 elements into a buffer at once. c takes one every
// 11 cycles, so the buffer drains to empty in half a round, while q's inner
// level and the buffer's occupancy both drift. c checks the buffer before
// its own token after every firing, so were the buffer read empty inside a
// skipped period, c would count that stall as input-starved rather than
// token-wait: the jump must stop while every value the buffer takes is at
// least 1 (a floor of 0 shows here).
func burstDrainDesign() *sim.Design {
	g := dfg.NewGraph(&ir.Program{TypeBits: 32})
	q := pacedUnit(g, "q", 34, 1, 40, 20)
	p := g.AddVU(dfg.VCUCompute, "p")
	p.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(10), Trip: 40}, {Ctrl: ir.CtrlID(11), Trip: 40}}
	tok := g.AddEdge(q.ID, p.ID, dfg.EToken)
	tok.PushCtrl, tok.PopCtrl = ir.CtrlID(2), ir.CtrlID(11)
	c := g.AddVU(dfg.VCUCompute, "c")
	c.Stages = 1
	c.Counters = []dfg.Counter{{Ctrl: ir.CtrlID(20), Trip: 800}, {Ctrl: ir.CtrlID(21), Trip: 2}}
	g.AddEdge(p.ID, c.ID, dfg.EData).Depth = 64
	loop := g.AddEdge(c.ID, c.ID, dfg.EToken)
	loop.LCD, loop.Init, loop.Depth = true, 1, 1
	return &sim.Design{G: g, Spec: arch.SARA20x20()}
}
