package store

import (
	"fmt"
	"sort"
	"time"

	"sara/internal/arch"
	"sara/internal/ir"
)

// FinalStage is the store namespace for fully compiled design artifacts.
const FinalStage = "final"

// SimStage is the store namespace for memoized simulation results: sarad
// keeps the encoded sim.Result of each (design, engine, cycle cap) it has run.
const SimStage = "sim"

// Artifact is a self-contained compiled design: unlike a stage Snapshot it
// carries the program and arch spec, so it can be decoded into a simulatable
// design by a process that has never seen the originating request —
// `sara.Compiled` → bytes → `sim.Cycle` without recompiling. sarad persists
// one per completed compile and replays them to warm its LRU at startup.
type Artifact struct {
	Prog       *ir.Program
	Spec       *arch.Spec
	State      *Snapshot
	PhaseTimes map[string]time.Duration
}

const artifactMagic = "SARADART"

// EncodeArtifact serializes a final design artifact.
func EncodeArtifact(a *Artifact) []byte {
	var w writer
	w.str(artifactMagic)
	w.int(FormatVersion)
	encodeProgram(&w, a.Prog)
	encodeSpec(&w, a.Spec)
	w.bytes(EncodeSnapshot(a.State))
	keys := make([]string, 0, len(a.PhaseTimes))
	for k := range a.PhaseTimes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.int(len(keys))
	for _, k := range keys {
		w.str(k)
		w.i64(int64(a.PhaseTimes[k]))
	}
	return w.buf
}

// DecodeArtifact deserializes a final design artifact.
func DecodeArtifact(data []byte) (*Artifact, error) {
	r := &reader{buf: data}
	if m := r.str(); r.err == nil && m != artifactMagic {
		return nil, fmt.Errorf("store: bad artifact magic %q", m)
	}
	if v := r.int(); r.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("store: artifact format version %d, this build reads %d", v, FormatVersion)
	}
	a := &Artifact{}
	a.Prog = decodeProgram(r)
	a.Spec = decodeSpec(r)
	snapBytes := r.bytesField()
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	a.PhaseTimes = make(map[string]time.Duration, n)
	for i, prev := 0, ""; i < n; i++ {
		k := r.str()
		if i > 0 && k <= prev {
			r.fail("map key out of order")
		}
		a.PhaseTimes[k], prev = time.Duration(r.i64()), k
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	state, err := DecodeSnapshot(snapBytes, a.Prog)
	if err != nil {
		return nil, err
	}
	a.State = state
	return a, nil
}

// encodeProgram writes a full-fidelity program encoding (the canonical
// hashing encoder with Par preserved — same field order, so the two can
// never drift apart).
func encodeProgram(w *writer, p *ir.Program) {
	encodeProgramCanonical(w, p, true)
}

func decodeProgram(r *reader) *ir.Program {
	p := &ir.Program{}
	p.Name = r.str()
	p.TypeBits = r.int()
	nc := r.count()
	if r.err != nil {
		return p
	}
	p.Ctrls = make([]*ir.Ctrl, nc)
	for i := range p.Ctrls {
		c := &ir.Ctrl{}
		c.ID = ir.CtrlID(r.int())
		c.Kind = ir.CtrlKind(r.int())
		c.Name = r.str()
		c.Parent = ir.CtrlID(r.int())
		nch := r.count()
		if r.err != nil {
			return p
		}
		c.Children = make([]ir.CtrlID, nch)
		for j := range c.Children {
			c.Children[j] = ir.CtrlID(r.int())
		}
		c.Min = r.int()
		c.Step = r.int()
		c.Max = r.int()
		c.Trip = r.int()
		c.Par = r.int()
		c.Clause = ir.BranchClause(r.int())
		c.CondBlock = ir.CtrlID(r.int())
		c.BoundsBlock = ir.CtrlID(r.int())
		nops := r.count()
		if r.err != nil {
			return p
		}
		c.Ops = make([]*ir.Op, nops)
		for j := range c.Ops {
			op := &ir.Op{}
			op.Kind = ir.OpKind(r.int())
			nin := r.count()
			if r.err != nil {
				return p
			}
			op.Inputs = make([]int, nin)
			for k := range op.Inputs {
				op.Inputs[k] = r.int()
			}
			op.Acc = ir.AccessID(r.int())
			op.LCD = r.bool()
			c.Ops[j] = op
		}
		nacc := r.count()
		if r.err != nil {
			return p
		}
		c.Accesses = make([]ir.AccessID, nacc)
		for j := range c.Accesses {
			c.Accesses[j] = ir.AccessID(r.int())
		}
		p.Ctrls[i] = c
	}
	nm := r.count()
	if r.err != nil {
		return p
	}
	p.Mems = make([]*ir.Mem, nm)
	for i := range p.Mems {
		m := &ir.Mem{}
		m.ID = ir.MemID(r.int())
		m.Kind = ir.MemKind(r.int())
		m.Name = r.str()
		nd := r.count()
		if r.err != nil {
			return p
		}
		m.Dims = make([]int, nd)
		for j := range m.Dims {
			m.Dims[j] = r.int()
		}
		na := r.count()
		if r.err != nil {
			return p
		}
		m.Accessors = make([]ir.AccessID, na)
		for j := range m.Accessors {
			m.Accessors[j] = ir.AccessID(r.int())
		}
		m.MultiBuffer = r.int()
		p.Mems[i] = m
	}
	nA := r.count()
	if r.err != nil {
		return p
	}
	p.Accs = make([]*ir.Access, nA)
	for i := range p.Accs {
		a := &ir.Access{}
		a.ID = ir.AccessID(r.int())
		a.Mem = ir.MemID(r.int())
		a.Block = ir.CtrlID(r.int())
		a.Dir = ir.Dir(r.int())
		a.Pat = decodePattern(r)
		a.Vec = r.int()
		a.Name = r.str()
		p.Accs[i] = a
	}
	return p
}

func decodePattern(r *reader) ir.Pattern {
	var pat ir.Pattern
	pat.Kind = ir.PatternKind(r.int())
	if n, nonNil := r.slice(); nonNil {
		pat.Coeffs = make(map[ir.CtrlID]int, n)
		for i, prev := 0, 0; i < n; i++ {
			k := r.int()
			r.ascending(i, prev, k)
			pat.Coeffs[ir.CtrlID(k)], prev = r.int(), k
		}
	}
	pat.Offset = r.int()
	return pat
}

func encodeSpec(w *writer, s *arch.Spec) {
	w.str(s.Name)
	w.int(s.Rows)
	w.int(s.Cols)
	w.int(s.NumPCU)
	w.int(s.NumPMU)
	w.int(s.NumAG)
	encodePUSpec(w, s.PCU)
	encodePUSpec(w, s.PMU)
	encodePUSpec(w, s.AG)
	w.int(int(s.DRAM.Kind))
	w.int(s.DRAM.Channels)
	w.f64(s.DRAM.BytesPerCyclePerChannel)
	w.int(s.DRAM.LatencyCycles)
	w.int(s.DRAM.BurstBytes)
	w.f64(s.ClockGHz)
	w.int(s.NetHopLatencyCycles)
	w.int(s.DefaultStreamHops)
	w.int(s.LinkLanes)
	w.f64(s.ReconfigMicros)
	w.f64(s.AreaMM2)
}

func decodeSpec(r *reader) *arch.Spec {
	s := &arch.Spec{}
	s.Name = r.str()
	s.Rows = r.int()
	s.Cols = r.int()
	s.NumPCU = r.int()
	s.NumPMU = r.int()
	s.NumAG = r.int()
	s.PCU = decodePUSpec(r)
	s.PMU = decodePUSpec(r)
	s.AG = decodePUSpec(r)
	s.DRAM.Kind = arch.DRAMKind(r.int())
	s.DRAM.Channels = r.int()
	s.DRAM.BytesPerCyclePerChannel = r.f64()
	s.DRAM.LatencyCycles = r.int()
	s.DRAM.BurstBytes = r.int()
	s.ClockGHz = r.f64()
	s.NetHopLatencyCycles = r.int()
	s.DefaultStreamHops = r.int()
	s.LinkLanes = r.int()
	s.ReconfigMicros = r.f64()
	s.AreaMM2 = r.f64()
	return s
}

func encodePUSpec(w *writer, p arch.PUSpec) {
	w.int(int(p.Type))
	w.int(p.Lanes)
	w.int(p.Stages)
	w.int(p.MaxIn)
	w.int(p.MaxOut)
	w.int(p.InBufDepth)
	w.i64(p.ScratchElems)
	w.int(p.MaxCounters)
}

func decodePUSpec(r *reader) arch.PUSpec {
	return arch.PUSpec{
		Type:         arch.PUType(r.int()),
		Lanes:        r.int(),
		Stages:       r.int(),
		MaxIn:        r.int(),
		MaxOut:       r.int(),
		InBufDepth:   r.int(),
		ScratchElems: r.i64(),
		MaxCounters:  r.int(),
	}
}
