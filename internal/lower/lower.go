// Package lower implements SARA's imperative-to-dataflow lowering
// (paper §III-A): it converts the control hierarchy into a Virtual Unit
// Dataflow Graph that spatially pipelines the whole CFG.
//
// For every hyperblock the pass allocates a virtual compute unit (VCU), and
// for every on-chip data structure a virtual memory unit (VMU). Each memory
// access is split into a request VCU (address generation) and, for writes, a
// response VCU that accumulates acknowledgments (paper Fig 2c). Outer-loop
// parallelization factors spatially unroll subtrees into multiple unit
// instances; innermost-loop factors vectorize along the SIMD lanes
// (paper §II-A b). Finally the pass wires the CMMC synchronization plan —
// tokens and credits between response and request units, pushed and popped by
// the done-signals of the least-common-ancestor's immediate children — plus
// the data-dependent control streams for branches, dynamic bounds, and
// do-while loops (paper §III-A2).
package lower

import (
	"fmt"

	"sara/internal/arch"
	"sara/internal/consistency"
	"sara/internal/dfg"
	"sara/internal/ir"
)

// Options tunes lowering. It has no fields: SIMD width is the target PCU's
// lane count.
type Options struct{}

// Result is the lowered VUDFG plus the bookkeeping the later passes (memory
// banking, optimization, simulation) need to find units again.
type Result struct {
	G    *dfg.Graph
	Plan *consistency.Plan

	// AccessReq and AccessResp map each access location to its per-instance
	// request and response units. Reads use the consuming compute unit as
	// their response role, so AccessResp of a read points at main VCUs.
	AccessReq  map[ir.AccessID][]dfg.VUID
	AccessResp map[ir.AccessID][]dfg.VUID
	// BlockVUs maps each hyperblock to its per-instance main compute units.
	BlockVUs map[ir.CtrlID][]dfg.VUID
	// MemVMU maps each on-chip memory to its (pre-banking) VMU.
	MemVMU map[ir.MemID]dfg.VUID
	// SyncEdges lists the token/credit edges materializing the CMMC plan.
	SyncEdges []dfg.EdgeID
}

// Lower runs the pass. The consistency plan must have been computed for the
// same program.
func Lower(prog *ir.Program, plan *consistency.Plan, spec *arch.Spec, _ Options) (*Result, error) {
	l := &lowerer{
		prog: prog,
		plan: plan,
		spec: spec,
		res: &Result{
			G:          dfg.NewGraph(prog),
			Plan:       plan,
			AccessReq:  map[ir.AccessID][]dfg.VUID{},
			AccessResp: map[ir.AccessID][]dfg.VUID{},
			BlockVUs:   map[ir.CtrlID][]dfg.VUID{},
			MemVMU:     map[ir.MemID]dfg.VUID{},
		},
		ctrlVUs: map[ir.CtrlID][]dfg.VUID{},
		splitW:  map[ir.CtrlID]map[ir.MemID]bool{},
	}
	l.markSplits()
	l.allocVMUs()
	l.walk(0, instCtx{trip: map[ir.CtrlID]int{}, vec: map[ir.CtrlID]int{}})
	l.wireControl()
	l.wireSync()
	if err := l.res.G.Validate(); err != nil {
		return nil, fmt.Errorf("lower %s: %w", prog.Name, err)
	}
	return l.res, nil
}

type lowerer struct {
	prog *ir.Program
	plan *consistency.Plan
	spec *arch.Spec
	res  *Result

	// ctrlVUs maps every controller to all VUs emitted under it (for gating
	// edges: branch conditions, dynamic bounds, while conditions).
	ctrlVUs map[ir.CtrlID][]dfg.VUID
	// splitW marks (block, mem) pairs whose write accesses must live in a
	// separate writer VCU because the block writes then reads the same VMU
	// (paper §III-A1 last paragraph).
	splitW map[ir.CtrlID]map[ir.MemID]bool
	// condVUs maps a branch/while/dyn controller to its per-instance
	// condition or bounds unit.
	condVUs map[ir.CtrlID][]dfg.VUID
	// roles maps condition/bounds hyperblocks to the controller they serve.
	roles map[ir.CtrlID]ir.CtrlID
	// fifoEnds collects FIFO writer/reader units for wireFIFOs.
	fifoEnds map[ir.MemID]*fifoEnd
}

// instCtx tracks the unrolling state during the tree walk.
type instCtx struct {
	path string
	trip map[ir.CtrlID]int // per-instance trip override for unrolled loops
	vec  map[ir.CtrlID]int // lanes for vectorized loops
}

func (c instCtx) clone() instCtx {
	nc := instCtx{path: c.path, trip: make(map[ir.CtrlID]int, len(c.trip)), vec: make(map[ir.CtrlID]int, len(c.vec))}
	for k, v := range c.trip {
		nc.trip[k] = v
	}
	for k, v := range c.vec {
		nc.vec[k] = v
	}
	return nc
}

// markSplits finds blocks that write a memory at a program point before
// reading the same memory (intra-block RAW): these must be partitioned into
// a writer and a reader VCU to break the VCU↔VMU cycle.
func (l *lowerer) markSplits() {
	for _, mp := range l.plan.Mems {
		for _, d := range mp.AllForward {
			if !d.IntraBlock || d.Kind != consistency.RAW {
				continue
			}
			blk := l.prog.Access(d.Src).Block
			mem := l.prog.Access(d.Src).Mem
			if l.splitW[blk] == nil {
				l.splitW[blk] = map[ir.MemID]bool{}
			}
			l.splitW[blk][mem] = true
		}
	}
}

// allocVMUs creates one VMU per on-chip addressable memory. FIFOs become
// direct streams between producer and consumer; DRAM tensors are reached
// through per-access address generators instead.
func (l *lowerer) allocVMUs() {
	for _, m := range l.prog.Mems {
		if m.Kind != ir.MemSRAM && m.Kind != ir.MemReg {
			continue
		}
		mb := l.memMultiBuffer(m.ID)
		u := l.res.G.AddVU(dfg.VMU, "vmu."+m.Name)
		u.Mem = m.ID
		u.MultiBuffer = mb
		u.CapacityElems = m.Size() * int64(mb)
		u.Lanes = l.spec.PMU.Lanes
		l.res.MemVMU[m.ID] = u.ID
	}
}

func (l *lowerer) memMultiBuffer(m ir.MemID) int {
	for _, mp := range l.plan.Mems {
		if mp.Mem == m {
			return mp.MultiBuffer
		}
	}
	return 1
}

// walk instantiates the control subtree under ctrl, applying spatial
// unrolling and vectorization.
func (l *lowerer) walk(ctrl ir.CtrlID, ctx instCtx) {
	c := l.prog.Ctrl(ctrl)
	switch c.Kind {
	case ir.CtrlBlock:
		l.emitBlock(c, ctx)
	case ir.CtrlRoot, ir.CtrlBranch:
		for _, ch := range c.Children {
			l.walk(ch, ctx)
		}
	default: // loops
		l.walkLoop(c, ctx)
	}
}

// walkLoop applies the loop's parallelization factor. A loop with no loop
// descendants vectorizes up to the PCU lanes; any remaining factor (and all outer
// factors) spatially unrolls the body into separate unit instances with
// proportionally reduced trip counts.
func (l *lowerer) walkLoop(c *ir.Ctrl, ctx instCtx) {
	lanes, spatial := 1, c.Par
	if l.isInnermost(c.ID) {
		lanes = min(c.Par, l.spec.PCU.Lanes)
		spatial = (c.Par + lanes - 1) / lanes
	}
	total := lanes * spatial
	trip := c.Trip
	if o, ok := ctx.trip[c.ID]; ok {
		trip = o
	}
	newTrip := (trip + total - 1) / total
	if newTrip < 1 {
		newTrip = 1
	}
	for s := 0; s < spatial; s++ {
		nc := ctx.clone()
		nc.trip[c.ID] = newTrip
		if lanes > 1 {
			nc.vec[c.ID] = lanes
		}
		if spatial > 1 {
			nc.path = fmt.Sprintf("%s[%d]", ctx.path, s)
		}
		for _, ch := range c.Children {
			l.walk(ch, nc)
		}
	}
}

// isInnermost reports whether no loop exists below c.
func (l *lowerer) isInnermost(c ir.CtrlID) bool {
	inner := true
	var rec func(id ir.CtrlID)
	rec = func(id ir.CtrlID) {
		for _, ch := range l.prog.Ctrl(id).Children {
			if l.prog.Ctrl(ch).IsLoop() {
				inner = false
				return
			}
			rec(ch)
		}
	}
	rec(c)
	return inner
}

// counters builds the chained counter stack for a unit belonging to block,
// outermost loop first, with instance-adjusted trips.
func (l *lowerer) counters(block ir.CtrlID, ctx instCtx) []dfg.Counter {
	var chain []dfg.Counter
	for id := l.prog.Ctrl(block).Parent; id != ir.NoCtrl; id = l.prog.Ctrl(id).Parent {
		c := l.prog.Ctrl(id)
		if !c.IsLoop() {
			continue
		}
		trip := c.Trip
		if o, ok := ctx.trip[id]; ok {
			trip = o
		}
		if v, ok := ctx.vec[id]; ok {
			_ = v // vectorized trips already divided in walkLoop
		}
		chain = append(chain, dfg.Counter{
			Ctrl:    id,
			Trip:    trip,
			Dynamic: c.Kind == ir.CtrlLoopDyn || c.Kind == ir.CtrlWhile,
		})
	}
	// Reverse: outermost first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// blockLanes returns the SIMD width of a block instance: the vector factor of
// its innermost vectorized enclosing loop.
func (l *lowerer) blockLanes(block ir.CtrlID, ctx instCtx) int {
	for id := l.prog.Ctrl(block).Parent; id != ir.NoCtrl; id = l.prog.Ctrl(id).Parent {
		if v, ok := ctx.vec[id]; ok {
			return v
		}
	}
	return 1
}

// registerUnder records u as belonging to every controller from block up to
// the root, so gating edges can find all units under a branch clause or loop.
func (l *lowerer) registerUnder(block ir.CtrlID, u dfg.VUID) {
	for id := block; id != ir.NoCtrl; id = l.prog.Ctrl(id).Parent {
		l.ctrlVUs[id] = append(l.ctrlVUs[id], u)
	}
}
