package store

import (
	"fmt"
	"sort"

	"sara/internal/arch"
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
func EncodeSnapshot(s *Snapshot) []byte {
	var w writer
	w.str(snapshotMagic)
	w.int(FormatVersion)

	w.bool(s.Plan != nil)
	if s.Plan != nil {
		encodePlan(&w, s.Plan)
	}
	w.bool(s.Lowered != nil)
	if s.Lowered != nil {
		encodeLowered(&w, s.Lowered)
	}
	encodeOptStats(&w, s.OptStats)
	w.bool(s.BankStats != nil)
	if s.BankStats != nil {
		encodeBankStats(&w, s.BankStats)
	}
	w.bool(s.PartStats != nil)
	if s.PartStats != nil {
		encodePartStats(&w, s.PartStats)
	}
	w.bool(s.Merged != nil)
	if s.Merged != nil {
		encodeMerged(&w, s.Merged)
	}
	w.bool(s.Placement != nil)
	if s.Placement != nil {
		encodePlacement(&w, s.Placement)
	}
	return w.buf
}

// DecodeSnapshot deserializes a pipeline snapshot. prog must be the same
// program (by content) the snapshot was taken from; it is re-attached to the
// decoded plan and graph, which carry only references to it. Content
// addressing guarantees the match: every stage key mixes in the program
// digest.
func DecodeSnapshot(data []byte, prog *ir.Program) (*Snapshot, error) {
	r := &reader{buf: data}
	if m := r.str(); r.err == nil && m != snapshotMagic {
		return nil, fmt.Errorf("store: bad snapshot magic %q", m)
	}
	if v := r.int(); r.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("store: snapshot format version %d, this build reads %d", v, FormatVersion)
	}
	s := &Snapshot{}
	if r.bool() {
		s.Plan = decodePlan(r, prog)
	}
	if r.bool() {
		s.Lowered = decodeLowered(r, prog, s.Plan)
	}
	s.OptStats = decodeOptStats(r)
	if r.bool() {
		s.BankStats = decodeBankStats(r)
	}
	if r.bool() {
		s.PartStats = decodePartStats(r)
	}
	if r.bool() {
		s.Merged = decodeMerged(r)
	}
	if r.bool() {
		s.Placement = decodePlacement(r)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- consistency.Plan ---

func encodePlan(w *writer, p *consistency.Plan) {
	w.int(len(p.Mems))
	for _, mp := range p.Mems {
		w.int(int(mp.Mem))
		encodeDeps(w, mp.AllForward)
		encodeDeps(w, mp.AllBackward)
		encodeDeps(w, mp.Forward)
		encodeDeps(w, mp.Backward)
		w.int(mp.MultiBuffer)
	}
}

func decodePlan(r *reader, prog *ir.Program) *consistency.Plan {
	p := &consistency.Plan{Prog: prog}
	n := r.count()
	if r.err != nil {
		return p
	}
	p.Mems = make([]consistency.MemPlan, n)
	for i := range p.Mems {
		mp := &p.Mems[i]
		mp.Mem = ir.MemID(r.int())
		mp.AllForward = decodeDeps(r)
		mp.AllBackward = decodeDeps(r)
		mp.Forward = decodeDeps(r)
		mp.Backward = decodeDeps(r)
		mp.MultiBuffer = r.int()
	}
	return p
}

func encodeDeps(w *writer, deps []consistency.Dep) {
	w.bool(deps != nil)
	w.int(len(deps))
	for _, d := range deps {
		w.int(int(d.Src))
		w.int(int(d.Dst))
		w.int(int(d.Kind))
		w.bool(d.Backward)
		w.int(int(d.Loop))
		w.int(d.Init)
		w.bool(d.IntraBlock)
	}
}

func decodeDeps(r *reader) []consistency.Dep {
	n, nonNil := r.slice()
	if !nonNil {
		return nil
	}
	deps := make([]consistency.Dep, n)
	for i := range deps {
		deps[i] = consistency.Dep{
			Src:        ir.AccessID(r.int()),
			Dst:        ir.AccessID(r.int()),
			Kind:       consistency.DepKind(r.int()),
			Backward:   r.bool(),
			Loop:       ir.CtrlID(r.int()),
			Init:       r.int(),
			IntraBlock: r.bool(),
		}
	}
	return deps
}

// --- lower.Result (incl. the VUDFG) ---

func encodeLowered(w *writer, l *lower.Result) {
	encodeGraph(w, l.G)
	encodeAccessVUMap(w, l.AccessReq)
	encodeAccessVUMap(w, l.AccessResp)
	encodeBlockVUMap(w, l.BlockVUs)
	encodeMemVMUMap(w, l.MemVMU)
	w.int(len(l.SyncEdges))
	for _, e := range l.SyncEdges {
		w.int(int(e))
	}
}

func decodeLowered(r *reader, prog *ir.Program, plan *consistency.Plan) *lower.Result {
	l := &lower.Result{Plan: plan}
	l.G = decodeGraph(r, prog)
	l.AccessReq = decodeAccessVUMap(r)
	l.AccessResp = decodeAccessVUMap(r)
	l.BlockVUs = decodeBlockVUMap(r)
	l.MemVMU = decodeMemVMUMap(r)
	n := r.count()
	if r.err != nil {
		return l
	}
	l.SyncEdges = make([]dfg.EdgeID, n)
	for i := range l.SyncEdges {
		l.SyncEdges[i] = dfg.EdgeID(r.int())
	}
	return l
}

func encodeAccessVUMap(w *writer, m map[ir.AccessID][]dfg.VUID) {
	keys := make([]ir.AccessID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.int(len(keys))
	for _, k := range keys {
		w.int(int(k))
		encodeVUIDs(w, m[k])
	}
}

func decodeAccessVUMap(r *reader) map[ir.AccessID][]dfg.VUID {
	n := r.count()
	if r.err != nil {
		return nil
	}
	m := make(map[ir.AccessID][]dfg.VUID, n)
	for i, prev := 0, 0; i < n; i++ {
		k := r.int()
		r.ascending(i, prev, k)
		m[ir.AccessID(k)], prev = decodeVUIDs(r), k
	}
	return m
}

func encodeBlockVUMap(w *writer, m map[ir.CtrlID][]dfg.VUID) {
	keys := make([]ir.CtrlID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.int(len(keys))
	for _, k := range keys {
		w.int(int(k))
		encodeVUIDs(w, m[k])
	}
}

func decodeBlockVUMap(r *reader) map[ir.CtrlID][]dfg.VUID {
	n := r.count()
	if r.err != nil {
		return nil
	}
	m := make(map[ir.CtrlID][]dfg.VUID, n)
	for i, prev := 0, 0; i < n; i++ {
		k := r.int()
		r.ascending(i, prev, k)
		m[ir.CtrlID(k)], prev = decodeVUIDs(r), k
	}
	return m
}

func encodeMemVMUMap(w *writer, m map[ir.MemID]dfg.VUID) {
	keys := make([]ir.MemID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.int(len(keys))
	for _, k := range keys {
		w.int(int(k))
		w.int(int(m[k]))
	}
}

func decodeMemVMUMap(r *reader) map[ir.MemID]dfg.VUID {
	n := r.count()
	if r.err != nil {
		return nil
	}
	m := make(map[ir.MemID]dfg.VUID, n)
	for i, prev := 0, 0; i < n; i++ {
		k := r.int()
		r.ascending(i, prev, k)
		m[ir.MemID(k)], prev = dfg.VUID(r.int()), k
	}
	return m
}

func encodeVUIDs(w *writer, ids []dfg.VUID) {
	w.bool(ids != nil)
	w.int(len(ids))
	for _, id := range ids {
		w.int(int(id))
	}
}

func decodeVUIDs(r *reader) []dfg.VUID {
	n, nonNil := r.slice()
	if !nonNil {
		return nil
	}
	ids := make([]dfg.VUID, n)
	for i := range ids {
		ids[i] = dfg.VUID(r.int())
	}
	return ids
}

// --- dfg.Graph ---

func encodeGraph(w *writer, g *dfg.Graph) {
	// VU and edge slices keep nil slots for removed entities (IDs are
	// indices); each slot carries a presence bit.
	w.int(len(g.VUs))
	for _, u := range g.VUs {
		w.bool(u != nil)
		if u == nil {
			continue
		}
		w.int(int(u.ID))
		w.int(int(u.Kind))
		w.str(u.Name)
		w.int(int(u.Block))
		w.int(int(u.Mem))
		w.int(int(u.Acc))
		w.int(u.Bank)
		w.int(u.Ops)
		w.int(u.Stages)
		w.int(u.Lanes)
		w.int(len(u.Counters))
		for _, c := range u.Counters {
			w.int(int(c.Ctrl))
			w.int(c.Trip)
			w.bool(c.Dynamic)
		}
		w.bool(u.HasAccum)
		w.i64(u.CapacityElems)
		w.int(u.MultiBuffer)
		w.str(u.Instance)
	}
	w.int(len(g.Edges))
	for _, e := range g.Edges {
		w.bool(e != nil)
		if e == nil {
			continue
		}
		w.int(int(e.ID))
		w.int(int(e.Src))
		w.int(int(e.Dst))
		w.int(int(e.Kind))
		w.int(e.Lanes)
		w.int(e.Depth)
		w.int(e.Init)
		w.int(int(e.PushCtrl))
		w.int(int(e.PopCtrl))
		w.bool(e.LCD)
		w.str(e.Group)
		w.int(e.Decimate)
		w.int(e.Slack)
		w.str(e.Port)
		w.str(e.Label)
	}
	adj := g.SnapshotAdjacency()
	encodeAdjHalf(w, adj.OutVU, adj.Out)
	encodeAdjHalf(w, adj.InVU, adj.In)
}

func decodeGraph(r *reader, prog *ir.Program) *dfg.Graph {
	g := dfg.NewGraph(prog)
	nVU := r.count()
	if r.err != nil {
		return g
	}
	g.VUs = make([]*dfg.VU, nVU)
	for i := range g.VUs {
		if !r.bool() {
			continue
		}
		u := &dfg.VU{
			ID:     dfg.VUID(r.int()),
			Kind:   dfg.VUKind(r.int()),
			Name:   r.str(),
			Block:  ir.CtrlID(r.int()),
			Mem:    ir.MemID(r.int()),
			Acc:    ir.AccessID(r.int()),
			Bank:   r.int(),
			Ops:    r.int(),
			Stages: r.int(),
			Lanes:  r.int(),
		}
		nc := r.count()
		if r.err != nil {
			return g
		}
		u.Counters = make([]dfg.Counter, nc)
		for j := range u.Counters {
			u.Counters[j] = dfg.Counter{
				Ctrl:    ir.CtrlID(r.int()),
				Trip:    r.int(),
				Dynamic: r.bool(),
			}
		}
		u.HasAccum = r.bool()
		u.CapacityElems = r.i64()
		u.MultiBuffer = r.int()
		u.Instance = r.str()
		g.VUs[i] = u
	}
	nE := r.count()
	if r.err != nil {
		return g
	}
	g.Edges = make([]*dfg.Edge, nE)
	for i := range g.Edges {
		if !r.bool() {
			continue
		}
		e := &dfg.Edge{
			ID:       dfg.EdgeID(r.int()),
			Src:      dfg.VUID(r.int()),
			Dst:      dfg.VUID(r.int()),
			Kind:     dfg.EdgeKind(r.int()),
			Lanes:    r.int(),
			Depth:    r.int(),
			Init:     r.int(),
			PushCtrl: ir.CtrlID(r.int()),
			PopCtrl:  ir.CtrlID(r.int()),
			LCD:      r.bool(),
			Group:    r.str(),
			Decimate: r.int(),
			Slack:    r.int(),
			Port:     r.str(),
			Label:    r.str(),
		}
		g.Edges[i] = e
	}
	var adj dfg.Adjacency
	adj.OutVU, adj.Out = decodeAdjHalf(r)
	adj.InVU, adj.In = decodeAdjHalf(r)
	g.RestoreAdjacency(adj)
	return g
}

func encodeAdjHalf(w *writer, ids []dfg.VUID, lists [][]dfg.EdgeID) {
	w.int(len(ids))
	for i, id := range ids {
		w.int(int(id))
		w.int(len(lists[i]))
		for _, e := range lists[i] {
			w.int(int(e))
		}
	}
}

func decodeAdjHalf(r *reader) ([]dfg.VUID, [][]dfg.EdgeID) {
	n := r.count()
	if r.err != nil {
		return nil, nil
	}
	ids := make([]dfg.VUID, n)
	lists := make([][]dfg.EdgeID, n)
	for i := 0; i < n; i++ {
		ids[i] = dfg.VUID(r.int())
		if i > 0 {
			r.ascending(i, int(ids[i-1]), int(ids[i]))
		}
		ne := r.count()
		if r.err != nil {
			return ids, lists
		}
		l := make([]dfg.EdgeID, ne)
		for j := range l {
			l[j] = dfg.EdgeID(r.int())
		}
		lists[i] = l
	}
	return ids, lists
}

// --- stats ---

func encodeOptStats(w *writer, s opt.Stats) {
	w.int(s.MSRConverted)
	w.int(s.RouteThroughs)
	w.int(s.RetimeVUs)
	w.int(s.RetimeScratch)
	w.int(s.XbarEliminated)
}

func decodeOptStats(r *reader) opt.Stats {
	return opt.Stats{
		MSRConverted:   r.int(),
		RouteThroughs:  r.int(),
		RetimeVUs:      r.int(),
		RetimeScratch:  r.int(),
		XbarEliminated: r.int(),
	}
}

func encodeBankStats(w *writer, s *membank.Stats) {
	w.int(s.BankedMems)
	w.int(s.BanksCreated)
	w.int(s.MergeVUs)
	w.int(s.PointToPoint)
	w.int(s.Crossbars)
}

func decodeBankStats(r *reader) *membank.Stats {
	return &membank.Stats{
		BankedMems:   r.int(),
		BanksCreated: r.int(),
		MergeVUs:     r.int(),
		PointToPoint: r.int(),
		Crossbars:    r.int(),
	}
}

func encodePartStats(w *writer, s *partition.ApplyStats) {
	w.int(s.SplitVUs)
	w.int(s.NewVUs)
	w.int(s.RetimeVUs)
	w.str(s.Algo)
	w.int(s.MIPNodes)
}

func decodePartStats(r *reader) *partition.ApplyStats {
	return &partition.ApplyStats{
		SplitVUs:  r.int(),
		NewVUs:    r.int(),
		RetimeVUs: r.int(),
		Algo:      r.str(),
		MIPNodes:  r.int(),
	}
}

// --- merge.Result ---

func encodeMerged(w *writer, m *merge.Result) {
	w.int(len(m.PUs))
	for _, pu := range m.PUs {
		w.int(int(pu.Type))
		encodeVUIDs(w, pu.Members)
	}
	keys := make([]dfg.VUID, 0, len(m.PUOf))
	for k := range m.PUOf {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.int(len(keys))
	for _, k := range keys {
		w.int(int(k))
		w.int(m.PUOf[k])
	}
	w.int(m.MergedIntoPMU)
	w.int(m.MIPNodes)
}

func decodeMerged(r *reader) *merge.Result {
	m := &merge.Result{}
	n := r.count()
	if r.err != nil {
		return m
	}
	m.PUs = make([]merge.PU, n)
	for i := range m.PUs {
		m.PUs[i].Type = arch.PUType(r.int())
		m.PUs[i].Members = decodeVUIDs(r)
	}
	np := r.count()
	if r.err != nil {
		return m
	}
	m.PUOf = make(map[dfg.VUID]int, np)
	for i, prev := 0, 0; i < np; i++ {
		k := r.int()
		r.ascending(i, prev, k)
		m.PUOf[dfg.VUID(k)], prev = r.int(), k
	}
	m.MergedIntoPMU = r.int()
	m.MIPNodes = r.int()
	return m
}

// --- place.Placement ---

func encodePlacement(w *writer, p *place.Placement) {
	w.bool(p.Grid != nil)
	if p.Grid != nil {
		w.int(p.Grid.Rows)
		w.int(p.Grid.Cols)
		w.int(p.Grid.HopLatency)
		w.int(p.Grid.LinkLanes)
		loads := p.Grid.SnapshotTraffic()
		w.int(len(loads))
		for _, ll := range loads {
			w.int(ll.From.R)
			w.int(ll.From.C)
			w.int(ll.To.R)
			w.int(ll.To.C)
			w.f64(ll.Load)
		}
	}
	keys := make([]int, 0, len(p.Coord))
	for k := range p.Coord {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.int(len(keys))
	for _, k := range keys {
		w.int(k)
		w.int(p.Coord[k].R)
		w.int(p.Coord[k].C)
	}
	w.f64(p.WireCost)
	w.int(p.MaxHop)
}

func decodePlacement(r *reader) *place.Placement {
	p := &place.Placement{}
	if r.bool() {
		rows := r.int()
		cols := r.int()
		hop := r.int()
		lanes := r.int()
		g := noc.New(rows, cols, hop, lanes)
		nl := r.count()
		if r.err != nil {
			return p
		}
		loads := make([]noc.LinkLoad, nl)
		for i := range loads {
			loads[i] = noc.LinkLoad{
				From: noc.Coord{R: r.int(), C: r.int()},
				To:   noc.Coord{R: r.int(), C: r.int()},
				Load: r.f64(),
			}
			// SnapshotTraffic writes one load per link, in (from, to) order.
			if i > 0 && !linkBefore(loads[i-1], loads[i]) {
				r.fail("link loads out of order")
			}
		}
		g.RestoreTraffic(loads)
		p.Grid = g
	}
	nc := r.count()
	if r.err != nil {
		return p
	}
	p.Coord = make(map[int]noc.Coord, nc)
	for i, prev := 0, 0; i < nc; i++ {
		k := r.int()
		r.ascending(i, prev, k)
		p.Coord[k], prev = noc.Coord{R: r.int(), C: r.int()}, k
	}
	p.WireCost = r.f64()
	p.MaxHop = r.int()
	return p
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
