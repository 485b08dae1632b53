// Package merge implements SARA's global merging pass (paper §III-B Fig 3,
// §III-B1b): packing small virtual units into larger ones that still fit a
// physical unit, to reduce resource fragmentation.
//
// Merging generalizes compute partitioning with heterogeneous targets:
//
//   - Rule-based PMU packing: the request and response VCUs of a memory
//     access carry only counters and a one-op address datapath, so they merge
//     into the Plasticine memory unit that holds their VMU ("in common cases,
//     SARA maps VCU F' and VCU G' to the same Plasticine memory unit",
//     §III-A1), subject to the PMU's arity and stage budget.
//   - Compute packing: remaining compute-class units with identical counter
//     chains and lane widths (unroll siblings, split halves, sync/retime
//     helpers) pack into PCUs via the partition machinery — greedy traversal
//     or the MIP solver, which is how Fig 11 compares the two families.
//
// The result assigns every live virtual unit to a physical-unit slot; the
// slot count is the resource number the evaluation reports.
package merge

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/partition"
)

// Options tunes merging.
type Options struct {
	// Algo selects the packing algorithm for the compute-class groups.
	Algo partition.Algorithm
	// Gap/MaxNodes/TimeLimit forward to the solver when Algo is AlgoSolver.
	Gap       float64
	MaxNodes  int
	TimeLimit time.Duration
	// Workers is read by nothing: the solver searches on one goroutine.
	// The field remains only because the benchmark harness still sets it.
	Workers int
	// DisableMerging turns the pass into the identity assignment (one PU per
	// VU), the baseline for the merge-effectiveness ablation (Fig 10).
	DisableMerging bool
	// Cache memoizes per-group packing results across compiles. Nil gives the pass its own instance memo
	// (partition.PassCache): repeated groups of one compile are packed once.
	Cache partition.SolverCache
}

// PU is one physical-unit slot of the merged design.
type PU struct {
	Type    arch.PUType
	Members []dfg.VUID
}

// Result maps virtual units onto physical-unit slots.
type Result struct {
	PUs  []PU
	PUOf map[dfg.VUID]int
	// MergedIntoPMU counts request/response units absorbed into their VMU's
	// memory unit.
	MergedIntoPMU int
	// MIPNodes totals branch-and-bound nodes the solver explored across all
	// packed groups (zero for traversal packing).
	MIPNodes int
}

// Counts returns the number of slots per PU type.
func (r *Result) Counts() (pcu, pmu, ag int) {
	for _, p := range r.PUs {
		switch p.Type {
		case arch.PCU:
			pcu++
		case arch.PMU:
			pmu++
		default:
			ag++
		}
	}
	return
}

// Total returns the total PU slot count.
func (r *Result) Total() int { return len(r.PUs) }

// Merge packs the graph's virtual units into physical-unit slots for the
// given architecture.
func Merge(g *dfg.Graph, spec *arch.Spec, opts Options) (*Result, error) {
	res := &Result{PUOf: map[dfg.VUID]int{}}
	claimed := map[dfg.VUID]bool{}

	addPU := func(t arch.PUType, members ...dfg.VUID) int {
		id := len(res.PUs)
		res.PUs = append(res.PUs, PU{Type: t, Members: members})
		for _, m := range members {
			res.PUOf[m] = id
			claimed[m] = true
		}
		return id
	}

	if opts.DisableMerging {
		for _, u := range g.LiveVUs() {
			addPU(puType(u), u.ID)
		}
		return res, nil
	}

	// Pass 1: VMUs anchor PMUs; absorb their request/response satellites.
	for _, u := range g.LiveVUs() {
		if u.Kind != dfg.VMU {
			continue
		}
		members := []dfg.VUID{u.ID}
		budgetOps := spec.PMU.Stages
		// Satellites: units whose only VMU neighbour is this one and whose
		// role is request/response for this memory.
		for _, eid := range append(g.In(u.ID), g.Out(u.ID)...) {
			e := g.Edge(eid)
			other := e.Src
			if other == u.ID {
				other = e.Dst
			}
			o := g.VU(other)
			if o == nil || claimed[other] {
				continue
			}
			if (o.Kind != dfg.VCURequest && o.Kind != dfg.VCUResponse) || o.Mem != u.Mem {
				continue
			}
			if o.Ops > budgetOps {
				continue
			}
			if !arityFits(g, append(members, other), spec.PMU) {
				continue
			}
			budgetOps -= o.Ops
			members = append(members, other)
			claimed[other] = true
			res.MergedIntoPMU++
		}
		addPU(arch.PMU, members...)
	}

	// Pass 2: DRAM address generators and their response collectors.
	for _, u := range g.LiveVUs() {
		if u.Kind != dfg.VAG || claimed[u.ID] {
			continue
		}
		members := []dfg.VUID{u.ID}
		for _, eid := range g.Out(u.ID) {
			e := g.Edge(eid)
			o := g.VU(e.Dst)
			if o != nil && !claimed[e.Dst] && o.Kind == dfg.VCUResponse && o.Acc == u.Acc {
				members = append(members, e.Dst)
				claimed[e.Dst] = true
			}
		}
		addPU(arch.AG, members...)
	}

	// Pass 3: pack the remaining compute-class units into PCUs, grouped by
	// (counter chain, lanes) signature so a merged unit shares one counter
	// chain.
	groups := map[string][]*dfg.VU{}
	var keys []string
	for _, u := range g.LiveVUs() {
		if claimed[u.ID] {
			continue
		}
		k := signature(u)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], u)
	}
	sort.Strings(keys)
	opts.Cache = partition.PassCache(opts.Cache)
	for _, k := range keys {
		nodes, err := packGroup(g, spec, opts, groups[k], addPU)
		if err != nil {
			return nil, err
		}
		res.MIPNodes += nodes
	}
	repairCycles(g, res)
	return res, nil
}

// packGroup packs one signature group into PCU slots via the partition
// machinery, using non-LCD edges among group members and counting all edges
// to non-members as external arity. It returns the branch-and-bound node
// count when the solver ran.
func packGroup(g *dfg.Graph, spec *arch.Spec, opts Options, group []*dfg.VU, addPU func(arch.PUType, ...dfg.VUID) int) (int, error) {
	idx := map[dfg.VUID]int{}
	for i, u := range group {
		idx[u.ID] = i
	}
	in := &partition.Instance{
		N:      len(group),
		Ops:    make([]int, len(group)),
		ExtIn:  make([]int, len(group)),
		ExtOut: make([]int, len(group)),
		MaxOps: spec.PCU.Stages,
		MaxIn:  spec.PCU.MaxIn,
		MaxOut: spec.PCU.MaxOut,
	}
	edgeSet := map[[2]int]bool{}
	for i, u := range group {
		in.Ops[i] = u.Ops
		if in.Ops[i] > in.MaxOps {
			// Should have been split by compute partitioning; keep it alone.
			in.Ops[i] = in.MaxOps
		}
		extInSrc := map[dfg.VUID]bool{}
		extOut := false
		for _, eid := range g.In(u.ID) {
			e := g.Edge(eid)
			if j, ok := idx[e.Src]; ok {
				if !e.LCD && e.Src != u.ID {
					edgeSet[[2]int{j, i}] = true
				}
			} else {
				extInSrc[e.Src] = true
			}
		}
		for _, eid := range g.Out(u.ID) {
			e := g.Edge(eid)
			if _, ok := idx[e.Dst]; !ok {
				extOut = true
			}
		}
		in.ExtIn[i] = len(extInSrc)
		if in.ExtIn[i] > in.MaxIn-1 {
			in.ExtIn[i] = in.MaxIn - 1 // leave room; merging can't reduce a unit's own fan-in
		}
		if extOut {
			in.ExtOut[i] = 1
		}
	}
	// Members connected by a dataflow path through external units must not
	// contract into one PU (that would close a cycle through the external
	// path) and must keep their order. Record such pairs as conflicts plus
	// ordering-only edges (they carry no stream, so no arity cost). The
	// reach index walks the external slot graph once for the whole group
	// instead of one DFS per member.
	reach := newReachIndex(g, idx)
	orderSet := map[[2]int]bool{}
	for i, u := range group {
		for j := range reach.from(u.ID) {
			in.Conflicts = append(in.Conflicts, [2]int{i, j})
			if !edgeSet[[2]int{i, j}] {
				orderSet[[2]int{i, j}] = true
			}
		}
	}
	for e := range orderSet {
		in.OrderEdges = append(in.OrderEdges, e)
	}
	sort.Slice(in.OrderEdges, func(a, b int) bool {
		if in.OrderEdges[a][0] != in.OrderEdges[b][0] {
			return in.OrderEdges[a][0] < in.OrderEdges[b][0]
		}
		return in.OrderEdges[a][1] < in.OrderEdges[b][1]
	})
	for e := range edgeSet {
		in.Edges = append(in.Edges, e)
	}
	sort.Slice(in.Edges, func(a, b int) bool {
		if in.Edges[a][0] != in.Edges[b][0] {
			return in.Edges[a][0] < in.Edges[b][0]
		}
		return in.Edges[a][1] < in.Edges[b][1]
	})
	sort.Slice(in.Conflicts, func(a, b int) bool {
		if in.Conflicts[a][0] != in.Conflicts[b][0] {
			return in.Conflicts[a][0] < in.Conflicts[b][0]
		}
		return in.Conflicts[a][1] < in.Conflicts[b][1]
	})

	res, err := partition.RunInstance(in, opts.Algo, partition.SolverOptions{
		Gap: opts.Gap, MaxNodes: opts.MaxNodes, TimeLimit: opts.TimeLimit,
	}, opts.Cache)
	if err != nil {
		return 0, fmt.Errorf("merge: packing group of %d: %w", len(group), err)
	}
	slots := map[int][]dfg.VUID{}
	for i, p := range res.Assign {
		slots[p] = append(slots[p], group[i].ID)
	}
	for p := 0; p < res.NumParts; p++ {
		addPU(arch.PCU, slots[p]...)
	}
	return res.MIPNodes, nil
}

// signature keys units that may share a PCU: same counter chain (controller
// sequence and trips), same lane width, same unroll instance.
func signature(u *dfg.VU) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "l%d|i%s|", u.Lanes, u.Instance)
	for _, c := range u.Counters {
		fmt.Fprintf(&sb, "c%d:%d,", c.Ctrl, c.Trip)
	}
	return sb.String()
}

// arityFits checks whether a candidate member set keeps external arity
// within the PU spec (broadcast counting: unique external sources in, member
// units with external destinations out).
func arityFits(g *dfg.Graph, members []dfg.VUID, spec arch.PUSpec) bool {
	inSet := map[dfg.VUID]bool{}
	member := map[dfg.VUID]bool{}
	for _, m := range members {
		member[m] = true
	}
	out := 0
	for _, m := range members {
		for _, eid := range g.In(m) {
			if e := g.Edge(eid); !member[e.Src] {
				inSet[e.Src] = true
			}
		}
		broadcasts := false
		for _, eid := range g.Out(m) {
			if e := g.Edge(eid); !member[e.Dst] {
				broadcasts = true
			}
		}
		if broadcasts {
			out++
		}
	}
	return len(inSet) <= spec.MaxIn && out <= spec.MaxOut
}

func puType(u *dfg.VU) arch.PUType {
	switch u.Kind {
	case dfg.VMU:
		return arch.PMU
	case dfg.VAG:
		return arch.AG
	default:
		return arch.PCU
	}
}

// extSlot is a traversal position outside the group: a unit, refined by
// access port for memories (entering a VMU on one access port only
// continues out of the same port).
type extSlot struct {
	vu   dfg.VUID
	port string
}

// reachIndex memoizes, for one signature group, which members each external
// slot can reach through external-only paths over non-LCD edges. The old
// code re-ran a full DFS per member — O(members × external graph); the index
// walks the external slot graph once and answers every member query by a
// union over its out-neighbour slots.
type reachIndex struct {
	g     *dfg.Graph
	idx   map[dfg.VUID]int
	reach map[extSlot]map[int]bool
}

func (r *reachIndex) slotOf(vu dfg.VUID, e *dfg.Edge) extSlot {
	if u := r.g.VU(vu); u != nil && u.Kind == dfg.VMU {
		return extSlot{vu, e.Port}
	}
	return extSlot{vu, ""}
}

func newReachIndex(g *dfg.Graph, idx map[dfg.VUID]int) *reachIndex {
	r := &reachIndex{g: g, idx: idx, reach: map[extSlot]map[int]bool{}}
	type adjacency struct {
		members []int     // member indices hit directly from this slot
		succs   []extSlot // external successor slots
	}
	adjOf := map[extSlot]*adjacency{}
	var stack []extSlot
	push := func(s extSlot) {
		if _, ok := adjOf[s]; !ok {
			adjOf[s] = nil // reserve: expanded below
			stack = append(stack, s)
		}
	}
	// Seed with every external slot any member feeds.
	for vu := range idx {
		for _, eid := range g.Out(vu) {
			e := g.Edge(eid)
			if e.LCD {
				continue
			}
			if _, ok := idx[e.Dst]; ok {
				continue
			}
			push(r.slotOf(e.Dst, e))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a := &adjacency{}
		for _, eid := range g.Out(s.vu) {
			e := g.Edge(eid)
			if e.LCD || r.slotOf(e.Src, e) != s {
				continue
			}
			if j, ok := idx[e.Dst]; ok {
				a.members = append(a.members, j) // hit, but do not traverse through
				continue
			}
			t := r.slotOf(e.Dst, e)
			a.succs = append(a.succs, t)
			push(t)
		}
		adjOf[s] = a
	}
	// Propagate member sets to a fixpoint. The sets only grow, so iteration
	// order does not affect the (unique) result; external cycles converge.
	for s, a := range adjOf {
		set := make(map[int]bool, len(a.members))
		for _, j := range a.members {
			set[j] = true
		}
		r.reach[s] = set
	}
	for changed := true; changed; {
		changed = false
		for s, a := range adjOf {
			set := r.reach[s]
			for _, t := range a.succs {
				for j := range r.reach[t] {
					if !set[j] {
						set[j] = true
						changed = true
					}
				}
			}
		}
	}
	return r
}

// from returns the member indices reachable from start through external-only
// paths, excluding start itself.
func (r *reachIndex) from(start dfg.VUID) map[int]bool {
	self, isMember := r.idx[start]
	found := map[int]bool{}
	for _, eid := range r.g.Out(start) {
		e := r.g.Edge(eid)
		if e.LCD {
			continue
		}
		if _, ok := r.idx[e.Dst]; ok {
			continue // direct member edges are instance edges, not conflicts
		}
		for j := range r.reach[r.slotOf(e.Dst, e)] {
			if !isMember || j != self {
				found[j] = true
			}
		}
	}
	return found
}

// externalReach returns the instance indices of group members reachable from
// start through paths whose intermediate units are all outside the group.
// It builds a one-off reach index; packGroup shares one index across the
// whole group instead.
func externalReach(g *dfg.Graph, start dfg.VUID, idx map[dfg.VUID]int) map[int]bool {
	return newReachIndex(g, idx).from(start)
}

// repairCycles splits merged PUs until the PU-level quotient graph (over
// non-LCD edges) is acyclic. Merging per signature group cannot see cycles
// that thread through several groups; this safety net restores the
// no-deadlock guarantee at worst by undoing some merges.
func repairCycles(g *dfg.Graph, res *Result) {
	for iter := 0; iter < len(res.PUs)+len(g.VUs); iter++ {
		onCycle := quotientCycle(g, res)
		if onCycle == nil {
			return
		}
		// Split the largest multi-member PU on the cycle into singletons.
		worst := -1
		for pu := range onCycle {
			if len(res.PUs[pu].Members) > 1 && (worst < 0 || len(res.PUs[pu].Members) > len(res.PUs[worst].Members)) {
				worst = pu
			}
		}
		if worst < 0 {
			// All-singleton cycle would mean the underlying graph is cyclic,
			// which Validate excludes; nothing more to do.
			return
		}
		members := res.PUs[worst].Members
		t := res.PUs[worst].Type
		res.PUs[worst].Members = members[:1]
		for _, m := range members[1:] {
			id := len(res.PUs)
			res.PUs = append(res.PUs, PU{Type: t, Members: []dfg.VUID{m}})
			res.PUOf[m] = id
		}
	}
}

// quotientCycle returns the set of PU ids left unresolved by Kahn's
// algorithm on the PU quotient graph (i.e. PUs on or downstream of a cycle),
// or nil when acyclic.
//
// Only merged PCUs are synchronous actors (their members share one counter
// chain and fire together), so only they contract to a single node. PMU and
// AG slots keep independent per-member (and per-VMU-port) datapaths in
// hardware — write, ack, and read-address streams of a memory unit do not
// synchronize with each other — so their members stay transparent,
// degenerating to the VU-level acyclicity the graph already guarantees.
func quotientCycle(g *dfg.Graph, res *Result) map[int]bool {
	type slot struct {
		pu   int
		sub  dfg.VUID
		port string
	}
	slotOf := func(vu dfg.VUID, e *dfg.Edge) slot {
		pu := res.PUOf[vu]
		if res.PUs[pu].Type == arch.PCU {
			return slot{pu, dfg.NoVU, ""}
		}
		if u := g.VU(vu); u != nil && u.Kind == dfg.VMU {
			return slot{pu, vu, e.Port}
		}
		return slot{pu, vu, ""}
	}
	indeg := map[slot]int{}
	adj := map[slot][]slot{}
	for _, e := range g.LiveEdges() {
		if e.LCD {
			continue
		}
		s, d := slotOf(e.Src, e), slotOf(e.Dst, e)
		if s == d {
			continue
		}
		if _, ok := indeg[s]; !ok {
			indeg[s] = 0
		}
		indeg[d]++
		adj[s] = append(adj[s], d)
	}
	var queue []slot
	for s, dgr := range indeg {
		if dgr == 0 {
			queue = append(queue, s)
		}
	}
	done := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		done++
		for _, d := range adj[s] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if done == len(indeg) {
		return nil
	}
	bad := map[int]bool{}
	for s, dgr := range indeg {
		if dgr > 0 {
			bad[s.pu] = true
		}
	}
	return bad
}
