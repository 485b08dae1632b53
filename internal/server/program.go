package server

import (
	"fmt"

	"sara/internal/arch"
	"sara/spatial"
)

// ProgramJSON is the wire form of a spatial program: memories plus a nested
// controller tree of counted loops and hyperblocks. It covers the serving
// use case — parameterized kernels submitted over HTTP — while dynamically
// bounded loops, do-while loops, and branches remain reachable through the
// registered-workload path of a request.
type ProgramJSON struct {
	Name     string     `json:"name"`
	TypeBits int        `json:"type_bits,omitempty"`
	Mems     []MemJSON  `json:"mems"`
	Body     []NodeJSON `json:"body"`
}

// MemJSON declares one logical memory.
type MemJSON struct {
	// Kind is dram, sram, reg, or fifo.
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Dims are the tensor dimensions in elements (fifo: Dims[0] is the
	// depth; reg: empty).
	Dims []int `json:"dims,omitempty"`
}

// NodeJSON is one controller of the body tree.
type NodeJSON struct {
	// Kind is "loop" or "block".
	Kind string `json:"kind"`
	Name string `json:"name"`

	// Loop shape (kind "loop"): for (i = Min; i < Max; i += Step) with
	// parallelization factor Par. Step defaults to 1 and Par to 1.
	Min  int        `json:"min,omitempty"`
	Max  int        `json:"max,omitempty"`
	Step int        `json:"step,omitempty"`
	Par  int        `json:"par,omitempty"`
	Body []NodeJSON `json:"body,omitempty"`

	// Ops is the hyperblock dataflow (kind "block").
	Ops []OpJSON `json:"ops,omitempty"`
}

// OpJSON is one entry of a hyperblock's operation list. Each entry produces
// exactly one op index ("chain" produces N, reporting the last), so later
// entries reference earlier results by position.
type OpJSON struct {
	// Op is a datapath mnemonic (add, sub, mul, div, fma, min, max, exp,
	// log, sqrt, sigmoid, tanh, cmp, mux, reduce, shuffle, rand, counter)
	// or one of the structural forms: read, write, accum, chain.
	Op string `json:"op"`
	// In lists producer op indices within the block; -1 marks a
	// block-external input (iterator, constant, streamed dependence).
	In []int `json:"in,omitempty"`
	// Mem names the target memory of a read/write.
	Mem string `json:"mem,omitempty"`
	// Pattern is the address pattern of a read/write (default streaming).
	Pattern *PatternJSON `json:"pattern,omitempty"`
	// Src is the stored-value op of a write; omitted means the value is
	// produced outside the block.
	Src *int `json:"src,omitempty"`
	// Of and N configure a chain: N ops of kind Of in a linear dependence
	// chain (models a block's compute by op count and depth).
	Of string `json:"of,omitempty"`
	N  int    `json:"n,omitempty"`
}

// PatternJSON is the wire form of an address pattern.
type PatternJSON struct {
	// Kind is stream, const, affine, or random.
	Kind   string `json:"kind"`
	Offset int    `json:"offset,omitempty"`
	// Terms are the affine coefficient·iterator terms; Loop names an
	// enclosing loop of the accessing block.
	Terms []TermJSON `json:"terms,omitempty"`
}

// TermJSON is one coefficient·iterator term of an affine pattern.
type TermJSON struct {
	Loop  string `json:"loop"`
	Coeff int    `json:"coeff"`
}

// opKinds maps wire mnemonics to datapath op kinds. Structural forms (read,
// write, accum, chain, counter) are handled separately by the decoder.
var opKinds = map[string]spatial.OpKind{
	"add": spatial.OpAdd, "sub": spatial.OpSub, "mul": spatial.OpMul,
	"div": spatial.OpDiv, "fma": spatial.OpFMA, "min": spatial.OpMin,
	"max": spatial.OpMax, "exp": spatial.OpExp, "log": spatial.OpLog,
	"sqrt": spatial.OpSqrt, "sigmoid": spatial.OpSigmoid, "tanh": spatial.OpTanh,
	"cmp": spatial.OpCmp, "mux": spatial.OpMux, "reduce": spatial.OpReduce,
	"shuffle": spatial.OpShuffle, "rand": spatial.OpRand,
}

// DecodeProgram builds and validates a spatial program from its wire form.
// Builder panics on structural misuse are converted to errors.
func DecodeProgram(pj *ProgramJSON) (prog *spatial.Program, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("server: invalid program: %v", p)
		}
	}()
	if pj.Name == "" {
		return nil, fmt.Errorf("server: program needs a name")
	}
	if len(pj.Body) == 0 {
		return nil, fmt.Errorf("server: program %q has an empty body", pj.Name)
	}
	b := spatial.NewBuilder(pj.Name)
	if pj.TypeBits > 0 {
		b.SetTypeBits(pj.TypeBits)
	}
	d := &decoder{b: b, mems: map[string]*spatial.Mem{}, iters: map[string]spatial.Iter{}}
	for _, m := range pj.Mems {
		if err := d.addMem(m); err != nil {
			return nil, err
		}
	}
	if err := d.nodes(pj.Body); err != nil {
		return nil, err
	}
	return b.Build()
}

// defaultFIFODepth is a fifo memory's depth when its dims are empty.
const defaultFIFODepth = 16

// fifoDepth returns a fifo memory's depth: Dims[0], or defaultFIFODepth when
// no dims are given. A depth below 1 or above arch.MaxStreamDepth is refused:
// it sizes stream buffers, which the arch ceilings bound everywhere else.
func (m *MemJSON) fifoDepth() (int, error) {
	depth := defaultFIFODepth
	if len(m.Dims) > 0 {
		depth = m.Dims[0]
	}
	if depth < 1 || depth > arch.MaxStreamDepth {
		return 0, fmt.Errorf("server: fifo %q: depth %d outside [1, %d]", m.Name, depth, arch.MaxStreamDepth)
	}
	return depth, nil
}

// checkLimits refuses a program whose sizes are out of bounds before anything
// is built from it: today, the depth of every fifo memory.
func (pj *ProgramJSON) checkLimits() error {
	for i := range pj.Mems {
		if m := &pj.Mems[i]; m.Kind == "fifo" {
			if _, err := m.fifoDepth(); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxProgramOps bounds the ops a program's chains may ask for in total, so
// that a few bytes of JSON cannot make the decoder allocate gigabytes.
const maxProgramOps = 1 << 16

type decoder struct {
	b     *spatial.Builder
	mems  map[string]*spatial.Mem
	iters map[string]spatial.Iter
	ops   int // ops the chains so far asked for
}

func (d *decoder) addMem(m MemJSON) error {
	if m.Name == "" {
		return fmt.Errorf("server: memory needs a name")
	}
	if _, dup := d.mems[m.Name]; dup {
		return fmt.Errorf("server: duplicate memory %q", m.Name)
	}
	switch m.Kind {
	case "dram":
		d.mems[m.Name] = d.b.DRAM(m.Name, m.Dims...)
	case "sram":
		d.mems[m.Name] = d.b.SRAM(m.Name, m.Dims...)
	case "reg":
		d.mems[m.Name] = d.b.Reg(m.Name)
	case "fifo":
		depth, err := m.fifoDepth()
		if err != nil {
			return err
		}
		d.mems[m.Name] = d.b.FIFO(m.Name, depth)
	default:
		return fmt.Errorf("server: memory %q: unknown kind %q (want dram, sram, reg, or fifo)", m.Name, m.Kind)
	}
	return nil
}

func (d *decoder) nodes(ns []NodeJSON) error {
	for i := range ns {
		if err := d.node(&ns[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) node(n *NodeJSON) error {
	switch n.Kind {
	case "loop":
		if n.Name == "" {
			return fmt.Errorf("server: loop needs a name")
		}
		if _, dup := d.iters[n.Name]; dup {
			return fmt.Errorf("server: duplicate loop name %q", n.Name)
		}
		step := n.Step
		if step == 0 {
			step = 1
		}
		var inner error
		d.b.For(n.Name, n.Min, n.Max, step, n.Par, func(it spatial.Iter) {
			d.iters[n.Name] = it
			inner = d.nodes(n.Body)
		})
		delete(d.iters, n.Name) // scoped: terms may only name enclosing loops
		return inner
	case "block":
		if n.Name == "" {
			return fmt.Errorf("server: block needs a name")
		}
		var inner error
		d.b.Block(n.Name, func(blk *spatial.Block) {
			inner = d.blockOps(n, blk)
		})
		return inner
	default:
		return fmt.Errorf("server: node %q: unknown kind %q (want loop or block)", n.Name, n.Kind)
	}
}

// blockOps replays the op list into blk, checking that every index reference
// points at an already-produced op.
func (d *decoder) blockOps(n *NodeJSON, blk *spatial.Block) error {
	count := 0 // ops produced so far; builder indices are dense in call order
	checkRef := func(ref int) error {
		if ref != spatial.External && (ref < 0 || ref >= count) {
			return fmt.Errorf("server: block %q: op reference %d out of range (have %d ops)", n.Name, ref, count)
		}
		return nil
	}
	for i, op := range n.Ops {
		switch op.Op {
		case "read":
			pat, err := d.pattern(op.Pattern)
			if err != nil {
				return fmt.Errorf("server: block %q op %d: %w", n.Name, i, err)
			}
			m, ok := d.mems[op.Mem]
			if !ok {
				return fmt.Errorf("server: block %q op %d: unknown memory %q", n.Name, i, op.Mem)
			}
			blk.Read(m, pat)
			count++
		case "write":
			pat, err := d.pattern(op.Pattern)
			if err != nil {
				return fmt.Errorf("server: block %q op %d: %w", n.Name, i, err)
			}
			m, ok := d.mems[op.Mem]
			if !ok {
				return fmt.Errorf("server: block %q op %d: unknown memory %q", n.Name, i, op.Mem)
			}
			src := spatial.External
			if op.Src != nil {
				src = *op.Src
			}
			if err := checkRef(src); err != nil {
				return err
			}
			blk.WriteFrom(m, pat, src)
			count++ // the store op occupies one index
		case "accum":
			if len(op.In) != 1 {
				return fmt.Errorf("server: block %q op %d: accum wants exactly one input", n.Name, i)
			}
			if err := checkRef(op.In[0]); err != nil {
				return err
			}
			blk.Accum(op.In[0])
			count++
		case "chain":
			kind, ok := opKinds[op.Of]
			if !ok {
				return fmt.Errorf("server: block %q op %d: chain of unknown op %q", n.Name, i, op.Of)
			}
			if op.N < 1 || op.N > maxProgramOps-d.ops {
				return fmt.Errorf("server: block %q op %d: chain needs 1 <= n <= %d", n.Name, i, maxProgramOps-d.ops)
			}
			d.ops += op.N
			blk.OpChain(kind, op.N)
			count += op.N
		case "counter":
			blk.Op(spatial.OpCounter)
			count++
		default:
			kind, ok := opKinds[op.Op]
			if !ok {
				return fmt.Errorf("server: block %q op %d: unknown op %q", n.Name, i, op.Op)
			}
			for _, ref := range op.In {
				if err := checkRef(ref); err != nil {
					return err
				}
			}
			blk.Op(kind, op.In...)
			count++
		}
	}
	return nil
}

func (d *decoder) pattern(pj *PatternJSON) (spatial.Pattern, error) {
	if pj == nil {
		return spatial.Streaming(), nil
	}
	switch pj.Kind {
	case "", "stream", "streaming":
		return spatial.Streaming(), nil
	case "const", "constant":
		return spatial.Constant(pj.Offset), nil
	case "random":
		return spatial.Random(), nil
	case "affine":
		terms := make([]spatial.AffineTerm, 0, len(pj.Terms))
		for _, t := range pj.Terms {
			it, ok := d.iters[t.Loop]
			if !ok {
				return spatial.Pattern{}, fmt.Errorf("affine term names unknown or non-enclosing loop %q", t.Loop)
			}
			terms = append(terms, spatial.Term(it, t.Coeff))
		}
		return spatial.Affine(pj.Offset, terms...), nil
	default:
		return spatial.Pattern{}, fmt.Errorf("unknown pattern kind %q (want stream, const, affine, or random)", pj.Kind)
	}
}
