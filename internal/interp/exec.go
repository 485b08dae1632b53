package interp

import (
	"fmt"
	"math"

	"sara/internal/ir"
)

// Exec is a sequential reference interpreter over the frontend IR: it runs
// the program with real float64 values in program order — the semantics CMMC
// promises to preserve on the accelerator ("the final result will be
// identical to a sequentially executed program", paper §III-A1). DSL users
// test their programs' functional behaviour against it (sara.NewInterpreter).
// Nothing checks the spatially pipelined execution against it: the cycle
// engine moves elements and times them but computes no values, so only the
// interpreter's own tests and the root package's API test run it.
type Exec struct {
	Prog *ir.Program
	// Mems holds each memory's contents (DRAM tensors included). FIFOs are
	// ring queues over the same storage.
	Mems [][]float64
	// External supplies values for block-external op inputs, keyed by block
	// controller; missing entries read as 1.
	External map[ir.CtrlID]float64

	// accumState carries OpAccum running sums per (block, op index).
	accumState map[[2]int]float64
	// streamPos tracks each streaming access's position.
	streamPos map[ir.AccessID]int
	// fifoHead tracks FIFO read positions per memory.
	fifoHead map[ir.MemID]int
	// fifoTail tracks FIFO write positions per memory.
	fifoTail map[ir.MemID]int
	// iters holds the current iteration of every loop during the walk.
	iters map[ir.CtrlID]int
	// Steps counts block executions, as a runaway guard.
	Steps int64
	// MaxSteps bounds execution (default 50M block runs).
	MaxSteps int64
}

// NewExec allocates interpreter state with zeroed memories.
func NewExec(p *ir.Program) *Exec {
	e := &Exec{
		Prog:       p,
		External:   map[ir.CtrlID]float64{},
		accumState: map[[2]int]float64{},
		streamPos:  map[ir.AccessID]int{},
		fifoHead:   map[ir.MemID]int{},
		fifoTail:   map[ir.MemID]int{},
		iters:      map[ir.CtrlID]int{},
		MaxSteps:   50_000_000,
	}
	for _, m := range p.Mems {
		e.Mems = append(e.Mems, make([]float64, m.Size()))
	}
	return e
}

// SetMem initializes a memory's contents by name.
func (e *Exec) SetMem(name string, vals []float64) error {
	for _, m := range e.Prog.Mems {
		if m.Name == name {
			copy(e.Mems[m.ID], vals)
			return nil
		}
	}
	return fmt.Errorf("interp: no memory %q", name)
}

// Mem returns a memory's contents by name.
func (e *Exec) Mem(name string) ([]float64, error) {
	for _, m := range e.Prog.Mems {
		if m.Name == name {
			return e.Mems[m.ID], nil
		}
	}
	return nil, fmt.Errorf("interp: no memory %q", name)
}

// Run executes the whole program sequentially.
func (e *Exec) Run() error {
	return e.runCtrl(0)
}

func (e *Exec) runCtrl(id ir.CtrlID) error {
	c := e.Prog.Ctrl(id)
	switch c.Kind {
	case ir.CtrlRoot:
		for _, ch := range c.Children {
			if err := e.runCtrl(ch); err != nil {
				return err
			}
		}
	case ir.CtrlBlock:
		return e.runBlock(c)
	case ir.CtrlBranch:
		// The condition block runs, then the taken clause. The reference
		// semantics alternate clauses with the condition's sign; blocks with
		// external conditions take then on even evaluations.
		cond := 1.0
		if c.CondBlock != ir.NoCtrl {
			v, err := e.runBlockValue(e.Prog.Ctrl(c.CondBlock))
			if err != nil {
				return err
			}
			cond = v
		}
		takeThen := cond > 0
		for _, ch := range c.Children {
			cc := e.Prog.Ctrl(ch)
			if ch == c.CondBlock {
				continue
			}
			if (cc.Clause == ir.ClauseThen) == takeThen && cc.Clause != ir.ClauseNone {
				if err := e.runCtrl(ch); err != nil {
					return err
				}
			}
		}
	default: // loops (static, dynamic, while all iterate Trip times)
		for k := 0; k < c.Trip; k++ {
			e.iters[c.ID] = k
			for _, ch := range c.Children {
				if err := e.runCtrl(ch); err != nil {
					return err
				}
			}
		}
		delete(e.iters, c.ID)
	}
	return nil
}

// runBlock executes one hyperblock iteration.
func (e *Exec) runBlock(c *ir.Ctrl) error {
	_, err := e.runBlockValue(c)
	return err
}

// runBlockValue executes a block and returns its last op's value.
func (e *Exec) runBlockValue(c *ir.Ctrl) (float64, error) {
	e.Steps++
	if e.Steps > e.MaxSteps {
		return 0, fmt.Errorf("interp: exceeded %d block executions", e.MaxSteps)
	}
	vals := make([]float64, len(c.Ops))
	last := 0.0
	in := func(op *ir.Op, k int) float64 {
		if k >= len(op.Inputs) || op.Inputs[k] < 0 {
			if v, ok := e.External[c.ID]; ok {
				return v
			}
			return 1
		}
		return vals[op.Inputs[k]]
	}
	for i, op := range c.Ops {
		var v float64
		switch op.Kind {
		case ir.OpAdd:
			v = in(op, 0) + in(op, 1)
		case ir.OpSub:
			v = in(op, 0) - in(op, 1)
		case ir.OpMul:
			v = in(op, 0) * in(op, 1)
		case ir.OpDiv:
			d := in(op, 1)
			if d == 0 {
				d = 1
			}
			v = in(op, 0) / d
		case ir.OpFMA:
			v = in(op, 0)*in(op, 1) + in(op, 2)
		case ir.OpMin:
			v = math.Min(in(op, 0), in(op, 1))
		case ir.OpMax:
			v = math.Max(in(op, 0), in(op, 1))
		case ir.OpExp:
			v = math.Exp(clamp(in(op, 0), -30, 30))
		case ir.OpLog:
			v = math.Log(math.Max(in(op, 0), 1e-30))
		case ir.OpSqrt:
			v = math.Sqrt(math.Abs(in(op, 0)))
		case ir.OpSigmoid:
			v = 1 / (1 + math.Exp(-clamp(in(op, 0), -30, 30)))
		case ir.OpTanh:
			v = math.Tanh(in(op, 0))
		case ir.OpCmp:
			if in(op, 0) < in(op, 1) {
				v = 1
			}
		case ir.OpMux:
			if in(op, 0) > 0 {
				v = in(op, 1)
			} else {
				v = in(op, 2)
			}
		case ir.OpReduce:
			v = in(op, 0) // scalar reference: lanes are a hardware notion
		case ir.OpAccum:
			key := [2]int{int(c.ID), i}
			e.accumState[key] += in(op, 0)
			v = e.accumState[key]
		case ir.OpCounter:
			v = float64(e.innermostIter(c.ID))
		case ir.OpLoad:
			addr, err := e.address(e.Prog.Access(op.Acc))
			if err != nil {
				return 0, err
			}
			v = e.Mems[e.Prog.Access(op.Acc).Mem][addr]
		case ir.OpStore:
			acc := e.Prog.Access(op.Acc)
			addr, err := e.address(acc)
			if err != nil {
				return 0, err
			}
			v = in(op, 0)
			e.Mems[acc.Mem][addr] = v
		case ir.OpShuffle:
			v = in(op, 0)
		case ir.OpRand:
			v = 0.5
		}
		vals[i] = v
		last = v
	}
	return last, nil
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// innermostIter returns the innermost enclosing loop's current iteration.
func (e *Exec) innermostIter(block ir.CtrlID) int {
	for id := e.Prog.Ctrl(block).Parent; id != ir.NoCtrl; id = e.Prog.Ctrl(id).Parent {
		if e.Prog.Ctrl(id).IsLoop() {
			return e.iters[id]
		}
	}
	return 0
}

// address resolves an access's concrete address at the current iteration
// state.
func (e *Exec) address(acc *ir.Access) (int, error) {
	m := e.Prog.Mem(acc.Mem)
	size := int(m.Size())
	switch acc.Pat.Kind {
	case ir.PatConstant:
		return bound(acc.Pat.Offset, size)
	case ir.PatStreaming:
		if m.Kind == ir.MemFIFO {
			if acc.Dir == ir.Write {
				p := e.fifoTail[m.ID] % size
				e.fifoTail[m.ID]++
				return p, nil
			}
			p := e.fifoHead[m.ID] % size
			e.fifoHead[m.ID]++
			return p, nil
		}
		p := e.streamPos[acc.ID] % size
		e.streamPos[acc.ID]++
		return p, nil
	case ir.PatRandom:
		// Deterministic pseudo-address derived from the stream position.
		p := e.streamPos[acc.ID]
		e.streamPos[acc.ID]++
		h := p*2654435761 + 7
		if h < 0 {
			h = -h
		}
		return h % size, nil
	}
	addr := acc.Pat.Offset
	for id := acc.Block; id != ir.NoCtrl; id = e.Prog.Ctrl(id).Parent {
		c := e.Prog.Ctrl(id)
		if !c.IsLoop() {
			continue
		}
		coef := 0
		if acc.Pat.Coeffs != nil {
			coef = acc.Pat.Coeffs[id]
		}
		if coef == 0 {
			continue
		}
		iter := e.iters[id]
		if c.Kind == ir.CtrlLoop {
			iter = c.Min + iter*c.Step
		}
		addr += coef * iter
	}
	return bound(addr, size)
}

func bound(addr, size int) (int, error) {
	if addr < 0 || addr >= size {
		return 0, fmt.Errorf("interp: address %d out of [0,%d)", addr, size)
	}
	return addr, nil
}
