package store

import (
	"time"

	"sara/internal/arch"
	"sara/internal/ir"
)

// FinalStage is the store namespace for fully compiled design artifacts.
const FinalStage = "final"

// SimStage is the store namespace for memoized simulation results: sarad
// keeps one record per design it has simulated, the compact wire JSON of the
// response's result member, keyed by the design's compile key, the record
// format, sim.Version and the cycle cap.
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
func EncodeArtifact(a *Artifact) []byte { return write(a, walkArtifact) }

// DecodeArtifact deserializes a final design artifact.
func DecodeArtifact(data []byte) (*Artifact, error) { return read(data, nil, walkArtifact) }

// walkArtifact walks the program and spec, then the snapshot as a nested,
// length-prefixed record (read back against the decoded program), then the
// phase times.
func walkArtifact(c *codec, a *Artifact) {
	c.header(artifactMagic, "artifact")
	ptr(c, &a.Prog, walkProgram)
	ptr(c, &a.Spec, walkSpec)
	var snap []byte
	if c.r == nil {
		snap = EncodeSnapshot(a.State)
	}
	c.bytes(&snap)
	sorted(c, &a.PhaseTimes, (*codec).str, num[time.Duration])
	if c.r != nil && c.r.err == nil {
		a.State, c.r.err = DecodeSnapshot(snap, a.Prog)
	}
}

func walkProgram(c *codec, p *ir.Program) {
	c.str(&p.Name)
	num(c, &p.TypeBits)
	refs(c, &p.Ctrls, false, walkCtrl)
	refs(c, &p.Mems, false, walkMem)
	refs(c, &p.Accs, false, walkAccess)
}

func walkCtrl(c *codec, x *ir.Ctrl) {
	num(c, &x.ID)
	num(c, &x.Kind)
	c.str(&x.Name)
	num(c, &x.Parent)
	list(c, &x.Children, num[ir.CtrlID])
	num(c, &x.Min)
	num(c, &x.Step)
	num(c, &x.Max)
	num(c, &x.Trip)
	if c.parFree {
		c.w.int(1)
	} else {
		num(c, &x.Par)
	}
	num(c, &x.Clause)
	num(c, &x.CondBlock)
	num(c, &x.BoundsBlock)
	refs(c, &x.Ops, false, walkOp)
	list(c, &x.Accesses, num[ir.AccessID])
}

func walkOp(c *codec, op *ir.Op) {
	num(c, &op.Kind)
	list(c, &op.Inputs, num[int])
	num(c, &op.Acc)
	c.bool(&op.LCD)
}

func walkMem(c *codec, m *ir.Mem) {
	num(c, &m.ID)
	num(c, &m.Kind)
	c.str(&m.Name)
	list(c, &m.Dims, num[int])
	list(c, &m.Accessors, num[ir.AccessID])
	num(c, &m.MultiBuffer)
}

func walkAccess(c *codec, a *ir.Access) {
	num(c, &a.ID)
	num(c, &a.Mem)
	num(c, &a.Block)
	num(c, &a.Dir)
	num(c, &a.Pat.Kind)
	if c.some(a.Pat.Coeffs != nil) {
		sorted(c, &a.Pat.Coeffs, num[ir.CtrlID], num[int])
	}
	num(c, &a.Pat.Offset)
	num(c, &a.Vec)
	c.str(&a.Name)
}

func walkSpec(c *codec, s *arch.Spec) {
	c.str(&s.Name)
	num(c, &s.Rows)
	num(c, &s.Cols)
	num(c, &s.NumPCU)
	num(c, &s.NumPMU)
	num(c, &s.NumAG)
	walkPUSpec(c, &s.PCU)
	walkPUSpec(c, &s.PMU)
	walkPUSpec(c, &s.AG)
	num(c, &s.DRAM.Kind)
	num(c, &s.DRAM.Channels)
	c.f64(&s.DRAM.BytesPerCyclePerChannel)
	num(c, &s.DRAM.LatencyCycles)
	num(c, &s.DRAM.BurstBytes)
	c.f64(&s.ClockGHz)
	num(c, &s.NetHopLatencyCycles)
	num(c, &s.DefaultStreamHops)
	num(c, &s.LinkLanes)
	c.f64(&s.ReconfigMicros)
	c.f64(&s.AreaMM2)
}

func walkPUSpec(c *codec, p *arch.PUSpec) {
	num(c, &p.Type)
	num(c, &p.Lanes)
	num(c, &p.Stages)
	num(c, &p.MaxIn)
	num(c, &p.MaxOut)
	num(c, &p.InBufDepth)
	num(c, &p.ScratchElems)
	num(c, &p.MaxCounters)
}
