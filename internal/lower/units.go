package lower

import (
	"sara/internal/dfg"
	"sara/internal/ir"
)

// blockRole returns the controller a block serves as condition/bounds
// evaluator for, or NoCtrl.
func (l *lowerer) blockRole(block ir.CtrlID) ir.CtrlID {
	if l.roles == nil {
		l.roles = map[ir.CtrlID]ir.CtrlID{}
		for _, c := range l.prog.Ctrls {
			switch c.Kind {
			case ir.CtrlBranch:
				l.roles[c.CondBlock] = c.ID
			case ir.CtrlLoopDyn, ir.CtrlWhile:
				l.roles[c.BoundsBlock] = c.ID
			}
		}
	}
	if owner, ok := l.roles[block]; ok {
		return owner
	}
	return ir.NoCtrl
}

// emitBlock lowers one hyperblock instance into its main compute unit plus
// per-access request/response units and memory plumbing.
func (l *lowerer) emitBlock(c *ir.Ctrl, ctx instCtx) {
	g := l.res.G
	lanes := l.blockLanes(c.ID, ctx)
	ctrs := l.counters(c.ID, ctx)

	kind := dfg.VCUCompute
	owner := l.blockRole(c.ID)
	if owner != ir.NoCtrl {
		switch l.prog.Ctrl(owner).Kind {
		case ir.CtrlBranch:
			kind = dfg.VCUCond
		default:
			kind = dfg.VCUBounds
		}
	}

	main := g.AddVU(kind, c.Name)
	main.Block = c.ID
	main.Ops = l.prog.BlockOpCount(c.ID)
	main.Stages = l.prog.BlockStages(c.ID)
	main.Lanes = lanes
	main.Counters = ctrs
	main.Instance = ctx.path
	for _, op := range c.Ops {
		if op.Kind == ir.OpAccum && op.LCD {
			main.HasAccum = true
		}
	}
	l.res.BlockVUs[c.ID] = append(l.res.BlockVUs[c.ID], main.ID)
	l.registerUnder(c.ID, main.ID)
	if owner != ir.NoCtrl {
		if l.condVUs == nil {
			l.condVUs = map[ir.CtrlID][]dfg.VUID{}
		}
		l.condVUs[owner] = append(l.condVUs[owner], main.ID)
	}

	// Split a writer unit off when the block writes then reads the same VMU.
	var writer *dfg.VU
	if mems := l.splitW[c.ID]; len(mems) > 0 {
		writer = g.AddVU(dfg.VCUCompute, c.Name+".w")
		writer.Block = c.ID
		writer.Ops = main.Ops / 2
		main.Ops -= writer.Ops
		writer.Stages = (main.Stages + 1) / 2
		writer.Lanes = lanes
		writer.Counters = ctrs
		writer.Instance = ctx.path
		l.registerUnder(c.ID, writer.ID)
		// The reader half consumes values the writer half produced upstream
		// of the memory round-trip only through the VMU; a direct data edge
		// carries the rest of the block's live values forward.
		e := g.AddEdge(writer.ID, main.ID, dfg.EData)
		e.Lanes = lanes
		e.Label = c.Name + ".split"
	}

	// readsOf/writesOf track per-memory access directions of this instance to
	// detect read-modify-write cycles through a VMU.
	reads := map[ir.MemID]bool{}
	writes := map[ir.MemID][]dfg.EdgeID{}

	for _, aid := range c.Accesses {
		a := l.prog.Access(aid)
		unit := main
		if writer != nil && a.Dir == ir.Write && l.splitW[c.ID][a.Mem] {
			unit = writer
		}
		m := l.prog.Mem(a.Mem)
		switch m.Kind {
		case ir.MemSRAM, ir.MemReg:
			l.emitOnChipAccess(a, m, unit, lanes, ctrs, ctx, reads, writes)
		case ir.MemFIFO:
			l.emitFIFOAccess(a, m, unit)
		case ir.MemDRAM:
			l.emitDRAMAccess(a, m, unit, lanes, ctrs, ctx)
		}
	}

	// Read-modify-write through the same VMU from one unit: the write-request
	// path closes a cycle that is a loop-carried dependence through memory;
	// seed it so topological traversal and the simulator treat it as such.
	for mem, edges := range writes {
		if !reads[mem] {
			continue
		}
		for _, eid := range edges {
			e := l.res.G.Edge(eid)
			e.LCD = true
			if e.Init == 0 {
				e.Init = 1
			}
		}
	}
}

// emitOnChipAccess wires one SRAM/Reg access through its VMU with a request
// unit (and for writes, an ack-collecting response unit), per paper Fig 2c.
func (l *lowerer) emitOnChipAccess(a *ir.Access, m *ir.Mem, unit *dfg.VU, lanes int, ctrs []dfg.Counter, ctx instCtx, reads map[ir.MemID]bool, writes map[ir.MemID][]dfg.EdgeID) {
	g := l.res.G
	vmu := l.res.MemVMU[m.ID]
	req := g.AddVU(dfg.VCURequest, "req."+a.Name)
	req.Block = a.Block
	req.Acc = a.ID
	req.Mem = m.ID
	req.Ops = 1
	req.Stages = 1
	req.Lanes = lanes
	req.Counters = ctrs
	req.Instance = ctx.path
	l.registerUnder(a.Block, req.ID)
	l.res.AccessReq[a.ID] = append(l.res.AccessReq[a.ID], req.ID)

	if a.Dir == ir.Read {
		addr := g.AddEdge(req.ID, vmu, dfg.EData)
		addr.Lanes = lanes
		addr.Label = a.Name + ".addr"
		addr.Port = a.Name
		data := g.AddEdge(vmu, unit.ID, dfg.EData)
		data.Lanes = lanes
		data.Label = a.Name + ".data"
		data.Port = a.Name
		// Reads respond at the consuming unit: token sources for "after this
		// read" dependences are the unit that observed the data.
		l.res.AccessResp[a.ID] = append(l.res.AccessResp[a.ID], unit.ID)
		reads[m.ID] = true
		return
	}

	st := g.AddEdge(unit.ID, req.ID, dfg.EData)
	st.Lanes = lanes
	st.Label = a.Name + ".store"
	wr := g.AddEdge(req.ID, vmu, dfg.EData)
	wr.Lanes = lanes
	wr.Label = a.Name + ".wreq"
	wr.Port = a.Name
	writes[m.ID] = append(writes[m.ID], wr.ID)

	resp := g.AddVU(dfg.VCUResponse, "resp."+a.Name)
	resp.Block = a.Block
	resp.Acc = a.ID
	resp.Mem = m.ID
	resp.Lanes = 1
	resp.Counters = ctrs
	resp.Instance = ctx.path
	l.registerUnder(a.Block, resp.ID)
	ack := g.AddEdge(vmu, resp.ID, dfg.EData)
	ack.Lanes = 1
	ack.Label = a.Name + ".ack"
	ack.Port = a.Name
	l.res.AccessResp[a.ID] = append(l.res.AccessResp[a.ID], resp.ID)
}

// emitFIFOAccess records FIFO endpoints; wireFIFOs connects them directly
// (FIFOs lower to PU input buffers, not VMUs).
func (l *lowerer) emitFIFOAccess(a *ir.Access, m *ir.Mem, unit *dfg.VU) {
	if l.fifoEnds == nil {
		l.fifoEnds = map[ir.MemID]*fifoEnd{}
	}
	fe := l.fifoEnds[m.ID]
	if fe == nil {
		fe = &fifoEnd{}
		l.fifoEnds[m.ID] = fe
	}
	if a.Dir == ir.Write {
		fe.writers = append(fe.writers, unit.ID)
	} else {
		fe.readers = append(fe.readers, unit.ID)
	}
	l.res.AccessReq[a.ID] = append(l.res.AccessReq[a.ID], unit.ID)
	l.res.AccessResp[a.ID] = append(l.res.AccessResp[a.ID], unit.ID)
}

type fifoEnd struct {
	writers, readers []dfg.VUID
}

// emitDRAMAccess wires one off-chip access through a dedicated address
// generator. The AG owns the access's counter chain so it can stream the
// whole request sequence independently (paper §II-C).
func (l *lowerer) emitDRAMAccess(a *ir.Access, m *ir.Mem, unit *dfg.VU, lanes int, ctrs []dfg.Counter, ctx instCtx) {
	g := l.res.G
	ag := g.AddVU(dfg.VAG, "ag."+a.Name)
	ag.Block = a.Block
	ag.Acc = a.ID
	ag.Mem = m.ID
	ag.Ops = 1
	ag.Stages = 1
	ag.Lanes = lanes
	ag.Counters = ctrs
	ag.Instance = ctx.path
	l.registerUnder(a.Block, ag.ID)
	l.res.AccessReq[a.ID] = append(l.res.AccessReq[a.ID], ag.ID)

	if a.Dir == ir.Read {
		data := g.AddEdge(ag.ID, unit.ID, dfg.EData)
		data.Lanes = lanes
		data.Label = a.Name + ".data"
		l.res.AccessResp[a.ID] = append(l.res.AccessResp[a.ID], unit.ID)
		return
	}
	st := g.AddEdge(unit.ID, ag.ID, dfg.EData)
	st.Lanes = lanes
	st.Label = a.Name + ".store"
	resp := g.AddVU(dfg.VCUResponse, "resp."+a.Name)
	resp.Block = a.Block
	resp.Acc = a.ID
	resp.Mem = m.ID
	resp.Lanes = 1
	resp.Counters = ctrs
	resp.Instance = ctx.path
	l.registerUnder(a.Block, resp.ID)
	ack := g.AddEdge(ag.ID, resp.ID, dfg.EData)
	ack.Lanes = 1
	ack.Label = a.Name + ".ack"
	l.res.AccessResp[a.ID] = append(l.res.AccessResp[a.ID], resp.ID)
}

// instancesAligned reports whether two unit lists are positionally matched
// unroll instances (same length, same instance paths).
func (l *lowerer) instancesAligned(a, b []dfg.VUID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if l.res.G.VU(a[i]).Instance != l.res.G.VU(b[i]).Instance {
			return false
		}
	}
	return true
}
