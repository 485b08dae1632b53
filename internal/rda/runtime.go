// Package rda implements the execution runtime the paper assumes around
// SARA (§IV-a): an application too big to fit the chip "must be segmented
// into smaller CFGs compiled by SARA independently. A runtime would execute
// these CFGs in time by reconfiguring the RDA. Automatically segmenting a
// large CFG is future work." This package implements that future work:
//
//   - Segment greedily groups the program's top-level controllers into the
//     fewest segments whose compiled designs each fit the chip.
//   - On-chip state crossing a segment boundary cannot survive
//     reconfiguration, so the segmenter inserts spill loops (scratchpad →
//     DRAM) at the end of the producing segment and fill loops at the start
//     of every consuming segment.
//   - Run executes the segments in time, charging the chip's
//     reconfiguration latency (tens of microseconds, paper §II-A) between
//     them — which is exactly why SARA works so hard to keep whole CFGs
//     resident.
package rda

import (
	"fmt"

	"sara/internal/arch"
	"sara/internal/core"
	"sara/internal/ir"
	"sara/internal/sim"
)

// Segment is one reconfiguration unit: a standalone program plus its
// compiled design.
type Segment struct {
	Prog     *ir.Program
	Compiled *core.Compiled
	// Spills and Fills name the memories this segment saves or restores
	// across the reconfiguration boundary.
	Spills, Fills []string
}

// Plan is a segmented application.
type Plan struct {
	Segments []*Segment
	// SpilledMems counts scratchpads whose contents cross boundaries.
	SpilledMems int
}

// Split divides prog into the fewest consecutive top-level groups whose
// compiled designs fit cfg.Spec, compiling each. A program that already fits
// returns a single segment with no spill traffic.
func Split(prog *ir.Program, cfg core.Config) (*Plan, error) {
	if cfg.Spec == nil {
		cfg.Spec = arch.SARA20x20()
	}
	// Fast path: the whole program fits.
	if c, err := core.Compile(prog, cfg); err == nil && c.Resources().Fits(cfg.Spec) {
		return &Plan{Segments: []*Segment{{Prog: prog, Compiled: c}}}, nil
	}

	children := prog.Root().Children
	var groups [][]ir.CtrlID
	var cur []ir.CtrlID
	for i := 0; i < len(children); i++ {
		trial := append(append([]ir.CtrlID{}, cur...), children[i])
		sub := extract(prog, trial)
		c, err := core.Compile(sub, cfg)
		if err == nil && c.Resources().Fits(cfg.Spec) {
			cur = trial
			continue
		}
		if len(cur) == 0 {
			if err != nil {
				return nil, fmt.Errorf("rda: top-level controller %q does not compile alone: %w",
					prog.Ctrl(children[i]).Name, err)
			}
			return nil, fmt.Errorf("rda: top-level controller %q does not fit the chip alone",
				prog.Ctrl(children[i]).Name)
		}
		groups = append(groups, cur)
		cur = []ir.CtrlID{children[i]}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}

	// Live on-chip memories across boundaries need spill/fill.
	memSeg := memSegments(prog, groups)
	plan := &Plan{}
	spilled := map[ir.MemID]bool{}
	for gi, g := range groups {
		sub := extract(prog, g)
		seg := &Segment{Prog: sub}
		for mid, segs := range memSeg {
			m := prog.Mem(mid)
			if m.Kind != ir.MemSRAM && m.Kind != ir.MemReg {
				continue
			}
			if len(segs) < 2 || !segs[gi] {
				continue
			}
			spilled[mid] = true
			// Fill before the body if an earlier segment touched it; spill
			// after if a later one will.
			earlier, later := false, false
			for s := range segs {
				if s < gi {
					earlier = true
				}
				if s > gi {
					later = true
				}
			}
			if earlier {
				addTransfer(sub, m.Name, true)
				seg.Fills = append(seg.Fills, m.Name)
			}
			if later {
				addTransfer(sub, m.Name, false)
				seg.Spills = append(seg.Spills, m.Name)
			}
		}
		c, err := core.Compile(sub, cfg)
		if err != nil {
			return nil, fmt.Errorf("rda: segment %d: %w", gi, err)
		}
		if !c.Resources().Fits(cfg.Spec) {
			return nil, fmt.Errorf("rda: segment %d no longer fits after spill insertion", gi)
		}
		seg.Compiled = c
		plan.Segments = append(plan.Segments, seg)
	}
	plan.SpilledMems = len(spilled)
	return plan, nil
}

// memSegments maps each memory to the set of segment indices accessing it.
func memSegments(prog *ir.Program, groups [][]ir.CtrlID) map[ir.MemID]map[int]bool {
	out := map[ir.MemID]map[int]bool{}
	for gi, g := range groups {
		inGroup := map[ir.CtrlID]bool{}
		for _, top := range g {
			var rec func(ir.CtrlID)
			rec = func(id ir.CtrlID) {
				inGroup[id] = true
				for _, ch := range prog.Ctrl(id).Children {
					rec(ch)
				}
			}
			rec(top)
		}
		for _, a := range prog.Accs {
			if inGroup[a.Block] {
				if out[a.Mem] == nil {
					out[a.Mem] = map[int]bool{}
				}
				out[a.Mem][gi] = true
			}
		}
	}
	return out
}

// extract clones the subtrees rooted at the given top-level controllers into
// a fresh program, remapping memories and accesses.
func extract(prog *ir.Program, tops []ir.CtrlID) *ir.Program {
	sub := ir.NewProgram(prog.Name + ".seg")
	sub.TypeBits = prog.TypeBits
	memMap := map[ir.MemID]ir.MemID{}
	getMem := func(old ir.MemID) ir.MemID {
		if nm, ok := memMap[old]; ok {
			return nm
		}
		m := prog.Mem(old)
		nm := sub.AddMem(m.Kind, m.Name, m.Dims...)
		nm.MultiBuffer = m.MultiBuffer
		memMap[old] = nm.ID
		return nm.ID
	}
	ctrlMap := map[ir.CtrlID]ir.CtrlID{}
	var copyCtrl func(old ir.CtrlID, parent ir.CtrlID) ir.CtrlID
	copyCtrl = func(old ir.CtrlID, parent ir.CtrlID) ir.CtrlID {
		c := prog.Ctrl(old)
		nc := sub.AddCtrl(c.Kind, c.Name, parent)
		nc.Min, nc.Step, nc.Max, nc.Trip, nc.Par = c.Min, c.Step, c.Max, c.Trip, c.Par
		nc.Clause = c.Clause
		ctrlMap[old] = nc.ID
		if c.Kind == ir.CtrlBlock {
			for _, op := range c.Ops {
				nop := *op
				nc.Ops = append(nc.Ops, &nop)
			}
			for _, aid := range c.Accesses {
				a := prog.Access(aid)
				pat := a.Pat
				if pat.Coeffs != nil {
					nc2 := make(map[ir.CtrlID]int, len(pat.Coeffs))
					for k, v := range pat.Coeffs {
						if nk, ok := ctrlMap[k]; ok {
							nc2[nk] = v
						}
					}
					pat.Coeffs = nc2
				}
				na := sub.AddAccess(nc.ID, getMem(a.Mem), a.Dir, pat, a.Name)
				na.Vec = a.Vec
				// Re-anchor load/store ops to the new access id.
				for _, nop := range nc.Ops {
					if (nop.Kind == ir.OpLoad || nop.Kind == ir.OpStore) && nop.Acc == a.ID {
						nop.Acc = na.ID
					}
				}
			}
		}
		for _, ch := range c.Children {
			copyCtrl(ch, nc.ID)
		}
		return nc.ID
	}
	for _, top := range tops {
		copyCtrl(top, 0)
	}
	// Fix cond/bounds block references.
	for old, nw := range ctrlMap {
		c := prog.Ctrl(old)
		if c.CondBlock != ir.NoCtrl {
			sub.Ctrl(nw).CondBlock = ctrlMap[c.CondBlock]
		}
		if c.BoundsBlock != ir.NoCtrl {
			sub.Ctrl(nw).BoundsBlock = ctrlMap[c.BoundsBlock]
		}
	}
	return sub
}

// addTransfer appends a spill (scratchpad → DRAM) or prepends a fill loop to
// the segment program for the named memory.
func addTransfer(sub *ir.Program, memName string, fill bool) {
	var m *ir.Mem
	for _, cand := range sub.Mems {
		if cand.Name == memName {
			m = cand
			break
		}
	}
	if m == nil {
		return
	}
	backing := sub.AddMem(ir.MemDRAM, memName+".spill", int(m.Size()))
	loop := sub.AddCtrl(ir.CtrlLoop, memName+".xfer", 0)
	trip := int(m.Size())
	loop.Min, loop.Max, loop.Step, loop.Trip, loop.Par = 0, trip, 1, trip, 16
	blk := sub.AddCtrl(ir.CtrlBlock, memName+".xferblk", loop.ID)
	aff := ir.Pattern{Kind: ir.PatAffine, Coeffs: map[ir.CtrlID]int{loop.ID: 1}}
	if fill {
		sub.AddAccess(blk.ID, backing.ID, ir.Read, ir.Pattern{Kind: ir.PatStreaming}, "fill."+memName)
		ld := sub.AddOp(blk.ID, ir.OpLoad)
		blk.Ops[ld].Acc = sub.Accs[len(sub.Accs)-1].ID
		sub.AddAccess(blk.ID, m.ID, ir.Write, aff, "fillw."+memName)
		st := sub.AddOp(blk.ID, ir.OpStore, ld)
		blk.Ops[st].Acc = sub.Accs[len(sub.Accs)-1].ID
	} else {
		sub.AddAccess(blk.ID, m.ID, ir.Read, aff, "spillr."+memName)
		ld := sub.AddOp(blk.ID, ir.OpLoad)
		blk.Ops[ld].Acc = sub.Accs[len(sub.Accs)-1].ID
		sub.AddAccess(blk.ID, backing.ID, ir.Write, ir.Pattern{Kind: ir.PatStreaming}, "spillw."+memName)
		st := sub.AddOp(blk.ID, ir.OpStore, ld)
		blk.Ops[st].Acc = sub.Accs[len(sub.Accs)-1].ID
	}
	// Move the transfer loop to the front for fills so restored state exists
	// before the body reads it.
	if fill {
		ch := sub.Root().Children
		last := ch[len(ch)-1]
		copy(ch[1:], ch[:len(ch)-1])
		ch[0] = last
	}
}

// Report is the runtime execution summary of a segmented application.
type Report struct {
	TotalCycles int64
	// ComputeCycles is the sum of the segments' own runtimes.
	ComputeCycles int64
	// ReconfigCycles is the time spent reconfiguring between segments.
	ReconfigCycles int64
	Segments       int
}

// Run executes the plan in time on the analytic engine, charging the chip's
// reconfiguration latency between consecutive segments.
func Run(plan *Plan, spec *arch.Spec) (*Report, error) {
	rep := &Report{Segments: len(plan.Segments)}
	reconfig := int64(spec.ReconfigMicros * 1e3 * spec.ClockGHz * 1e0) // µs → cycles at clock
	for i, seg := range plan.Segments {
		r, err := sim.Analytic(seg.Compiled.Design())
		if err != nil {
			return nil, fmt.Errorf("rda: segment %d: %w", i, err)
		}
		rep.ComputeCycles += r.Cycles
		if i > 0 {
			rep.ReconfigCycles += reconfig
		}
	}
	rep.TotalCycles = rep.ComputeCycles + rep.ReconfigCycles
	return rep, nil
}
