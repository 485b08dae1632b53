package sim_test

import (
	"reflect"
	"testing"

	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/sim"
	"sara/spatial"
)

// crossbarProg is the banked-crossbar program of ROADMAP item 1: an outer
// loop of trip n unrolled by outer, each instance updating a shared SRAM
// through a random read and a random write. Banking splits the SRAM over
// outer banks behind a crossbar.
func crossbarProg(outer, n int) *ir.Program {
	b := spatial.NewBuilder("crossbar")
	accum := b.SRAM("accum", 512)
	b.For("n", 0, n, 1, outer, func(spatial.Iter) {
		b.For("u", 0, 16, 1, 16, func(spatial.Iter) {
			b.Block("update", func(blk *spatial.Block) {
				av := blk.Read(accum, spatial.Random())
				nv := blk.Op(spatial.OpAdd, av, spatial.External)
				blk.WriteFrom(accum, spatial.Random(), nv)
			})
		})
	})
	return b.MustBuild()
}

// TestCrossbarGridEquivalence runs item 1's reproduction grid — outer 2…8 ×
// trip {12, 24, 60, 64, 100, 210, 256, 420, 840, 1024}, compiled without
// placement — on the dense engine, the event engine, and the event engine
// with its fast paths off. On every point the three agree: one Result, or
// one byte-identical error. Many points deadlock today (the counting
// crossbar); the test asserts agreement only.
func TestCrossbarGridEquivalence(t *testing.T) {
	outers := []int{2, 3, 4, 5, 6, 7, 8}
	trips := []int{12, 24, 60, 64, 100, 210, 256, 420, 840, 1024}
	if testing.Short() {
		trips = []int{24, 100}
	}
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	const maxCycles = 10_000_000
	for _, outer := range outers {
		for _, n := range trips {
			c, err := core.Compile(crossbarProg(outer, n), cfg)
			if err != nil {
				t.Fatalf("outer %d n %d: compile: %v", outer, n, err)
			}
			d := c.Design()
			den, denErr := sim.CycleEngine(d, maxCycles, sim.EngineDense)
			evt, evtErr := sim.CycleEngine(d, maxCycles, sim.EngineEvent)
			ref, refErr := sim.CycleEngineNoFastPath(d, maxCycles)
			if !sameOutcome(den, denErr, evt, evtErr) || !sameOutcome(evt, evtErr, ref, refErr) {
				t.Errorf("outer %d n %d: outcomes differ:\n dense: %+v %v\n event: %+v %v\n no fast paths: %+v %v",
					outer, n, den, denErr, evt, evtErr, ref, refErr)
			}
		}
	}
}

// sameOutcome reports whether two engine runs agree: equal Results apart
// from the engine's name, or errors with the same text.
func sameOutcome(a *sim.Result, aErr error, b *sim.Result, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	x, y := *a, *b
	x.Engine, y.Engine = "", ""
	return reflect.DeepEqual(x, y)
}
