package store

import (
	"sara/internal/consistency"
	"sara/internal/dfg"
	"sara/internal/ir"
	"sara/internal/lower"
	"sara/internal/membank"
	"sara/internal/merge"
	"sara/internal/noc"
	"sara/internal/opt"
	"sara/internal/partition"
	"sara/internal/place"
)

// Snapshot is the full pipeline state after some prefix of compile stages.
// Fields a stage has not produced yet are nil (OptStats is a value and is
// zero before opt-early). Restoring a snapshot and running the remaining
// stages is bit-identical to having run the whole pipeline cold: the graph
// serialization preserves nil VU/edge slots and exact adjacency-list order,
// and the placement serialization preserves the NoC grid's traffic map.
type Snapshot struct {
	Plan      *consistency.Plan
	Lowered   *lower.Result
	OptStats  opt.Stats
	BankStats *membank.Stats
	PartStats *partition.ApplyStats
	Merged    *merge.Result
	Placement *place.Placement
}

const snapshotMagic = "SARADSN1"

// EncodeSnapshot serializes a pipeline snapshot to the versioned binary
// format.
func EncodeSnapshot(s *Snapshot) []byte { return write(s, walkSnapshot) }

// DecodeSnapshot deserializes a pipeline snapshot. prog must be the same
// program (by content) the snapshot was taken from; it is re-attached to the
// decoded plan and graph, which carry only references to it. Content
// addressing guarantees the match: every stage key mixes in the program
// digest.
func DecodeSnapshot(data []byte, prog *ir.Program) (*Snapshot, error) {
	return read(data, prog, walkSnapshot)
}

func walkSnapshot(c *codec, s *Snapshot) {
	c.header(snapshotMagic, "snapshot")
	maybe(c, &s.Plan, walkPlan)
	maybe(c, &s.Lowered, walkLowered)
	if c.r != nil && s.Lowered != nil {
		s.Lowered.Plan = s.Plan
	}
	walkOptStats(c, &s.OptStats)
	maybe(c, &s.BankStats, walkBankStats)
	maybe(c, &s.PartStats, walkPartStats)
	maybe(c, &s.Merged, walkMerged)
	maybe(c, &s.Placement, walkPlacement)
}

// --- consistency.Plan ---

func walkPlan(c *codec, p *consistency.Plan) {
	if c.r != nil {
		p.Prog = c.prog
	}
	list(c, &p.Mems, walkMemPlan)
}

func walkMemPlan(c *codec, mp *consistency.MemPlan) {
	num(c, &mp.Mem)
	nilList(c, &mp.AllForward, walkDep)
	nilList(c, &mp.AllBackward, walkDep)
	nilList(c, &mp.Forward, walkDep)
	nilList(c, &mp.Backward, walkDep)
	num(c, &mp.MultiBuffer)
}

func walkDep(c *codec, d *consistency.Dep) {
	num(c, &d.Src)
	num(c, &d.Dst)
	num(c, &d.Kind)
	c.bool(&d.Backward)
	num(c, &d.Loop)
	num(c, &d.Init)
	c.bool(&d.IntraBlock)
}

// --- lower.Result (incl. the VUDFG) ---

func walkLowered(c *codec, l *lower.Result) {
	walkGraph(c, &l.G)
	sorted(c, &l.AccessReq, num[ir.AccessID], walkVUIDs)
	sorted(c, &l.AccessResp, num[ir.AccessID], walkVUIDs)
	sorted(c, &l.BlockVUs, num[ir.CtrlID], walkVUIDs)
	sorted(c, &l.MemVMU, num[ir.MemID], num[dfg.VUID])
	list(c, &l.SyncEdges, num[dfg.EdgeID])
}

func walkVUIDs(c *codec, ids *[]dfg.VUID) { nilList(c, ids, num[dfg.VUID]) }

// --- dfg.Graph ---

// walkGraph walks the VU and edge slices, which keep nil slots for removed
// entities (IDs are indices), then the adjacency lists in their exact order.
func walkGraph(c *codec, gp **dfg.Graph) {
	if c.r != nil {
		*gp = dfg.NewGraph(c.prog)
	}
	g := *gp
	refs(c, &g.VUs, true, walkVU)
	refs(c, &g.Edges, true, walkEdge)
	var adj dfg.Adjacency
	if c.r == nil {
		adj = g.SnapshotAdjacency()
	}
	walkAdjHalf(c, &adj.OutVU, &adj.Out)
	walkAdjHalf(c, &adj.InVU, &adj.In)
	if c.r != nil {
		g.RestoreAdjacency(adj)
	}
}

func walkVU(c *codec, u *dfg.VU) {
	num(c, &u.ID)
	num(c, &u.Kind)
	c.str(&u.Name)
	num(c, &u.Block)
	num(c, &u.Mem)
	num(c, &u.Acc)
	num(c, &u.Bank)
	num(c, &u.Ops)
	num(c, &u.Stages)
	num(c, &u.Lanes)
	list(c, &u.Counters, walkCounter)
	c.bool(&u.HasAccum)
	num(c, &u.CapacityElems)
	num(c, &u.MultiBuffer)
	c.str(&u.Instance)
}

func walkCounter(c *codec, x *dfg.Counter) {
	num(c, &x.Ctrl)
	num(c, &x.Trip)
	c.bool(&x.Dynamic)
}

func walkEdge(c *codec, e *dfg.Edge) {
	num(c, &e.ID)
	num(c, &e.Src)
	num(c, &e.Dst)
	num(c, &e.Kind)
	num(c, &e.Lanes)
	num(c, &e.Depth)
	num(c, &e.Init)
	num(c, &e.PushCtrl)
	num(c, &e.PopCtrl)
	c.bool(&e.LCD)
	c.str(&e.Group)
	num(c, &e.Decimate)
	num(c, &e.Slack)
	c.str(&e.Port)
	c.str(&e.Label)
}

// walkAdjHalf walks one direction's adjacency: a count, then each unit (in
// ascending order, as SnapshotAdjacency gives them) with its edge list.
func walkAdjHalf(c *codec, ids *[]dfg.VUID, lists *[][]dfg.EdgeID) {
	n := len(*ids)
	c.count(&n)
	if c.r != nil {
		*ids, *lists = make([]dfg.VUID, n), make([][]dfg.EdgeID, n)
	}
	for i := range *ids {
		num(c, &(*ids)[i])
		if c.r != nil && i > 0 && (*ids)[i] <= (*ids)[i-1] {
			c.r.fail("adjacency out of order")
		}
		list(c, &(*lists)[i], num[dfg.EdgeID])
	}
}

// --- stats ---

func walkOptStats(c *codec, s *opt.Stats) {
	num(c, &s.MSRConverted)
	num(c, &s.RouteThroughs)
	num(c, &s.RetimeVUs)
	num(c, &s.RetimeScratch)
	num(c, &s.XbarEliminated)
}

func walkBankStats(c *codec, s *membank.Stats) {
	num(c, &s.BankedMems)
	num(c, &s.BanksCreated)
	num(c, &s.MergeVUs)
	num(c, &s.PointToPoint)
	num(c, &s.Crossbars)
}

func walkPartStats(c *codec, s *partition.ApplyStats) {
	num(c, &s.SplitVUs)
	num(c, &s.NewVUs)
	num(c, &s.RetimeVUs)
	c.str(&s.Algo)
	num(c, &s.MIPNodes)
}

// --- merge.Result ---

func walkMerged(c *codec, m *merge.Result) {
	list(c, &m.PUs, walkPU)
	sorted(c, &m.PUOf, num[dfg.VUID], num[int])
	num(c, &m.MergedIntoPMU)
	num(c, &m.MIPNodes)
}

func walkPU(c *codec, pu *merge.PU) {
	num(c, &pu.Type)
	walkVUIDs(c, &pu.Members)
}

// --- place.Placement ---

func walkPlacement(c *codec, p *place.Placement) {
	maybe(c, &p.Grid, walkGrid)
	sorted(c, &p.Coord, num[int], walkCoord)
	c.f64(&p.WireCost)
	num(c, &p.MaxHop)
}

// walkGrid walks the NoC grid's dimensions and its traffic map, one load per
// link in SnapshotTraffic's (from, to) order.
func walkGrid(c *codec, g *noc.Grid) {
	num(c, &g.Rows)
	num(c, &g.Cols)
	num(c, &g.HopLatency)
	num(c, &g.LinkLanes)
	var loads []noc.LinkLoad
	if c.r == nil {
		loads = g.SnapshotTraffic()
	}
	list(c, &loads, walkLinkLoad)
	if c.r == nil {
		return
	}
	for i := 1; i < len(loads); i++ {
		if !linkBefore(loads[i-1], loads[i]) {
			c.r.fail("link loads out of order")
		}
	}
	*g = *noc.New(g.Rows, g.Cols, g.HopLatency, g.LinkLanes)
	g.RestoreTraffic(loads)
}

func walkLinkLoad(c *codec, l *noc.LinkLoad) {
	walkCoord(c, &l.From)
	walkCoord(c, &l.To)
	c.f64(&l.Load)
}

func walkCoord(c *codec, x *noc.Coord) {
	num(c, &x.R)
	num(c, &x.C)
}

// linkBefore orders link loads as noc's SnapshotTraffic does: by source,
// then destination, rows before columns.
func linkBefore(a, b noc.LinkLoad) bool {
	x := [4]int{a.From.R, a.From.C, a.To.R, a.To.C}
	y := [4]int{b.From.R, b.From.C, b.To.R, b.To.C}
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}
