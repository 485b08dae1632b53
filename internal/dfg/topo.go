package dfg

import (
	"fmt"
	"sort"
)

// slot is a dependence-analysis node: one virtual unit, or one port of a VMU.
// A memory serves its access streams independently, so each VMU port is its
// own node; collapsing a VMU to a single node would manufacture false cycles
// (e.g. read-address in → write-ack out).
type slot struct {
	vu   VUID
	port string
}

// before orders slots by (unit, port): the order in which TopoSort breaks
// the ties map iteration would otherwise break at random.
func (a slot) before(b slot) bool {
	if a.vu != b.vu {
		return a.vu < b.vu
	}
	return a.port < b.port
}

// slotOf returns the dependence node an edge endpoint belongs to.
func (g *Graph) slotOf(vu VUID, e *Edge) slot {
	if g.VUs[vu] != nil && g.VUs[vu].Kind == VMU {
		return slot{vu, e.Port}
	}
	return slot{vu, ""}
}

// TopoSort returns the live units in a topological order of the data/token
// flow, skipping LCD back edges (which legitimately close cycles and are
// seeded with initial tokens). It returns an error naming a unit on a
// non-LCD cycle; such cycles deadlock the spatial pipeline (paper §III-B,
// Fig 6 Solution 3). VMUs are expanded into per-port nodes; a VMU appears in
// the returned order at its first ready port.
func (g *Graph) TopoSort() ([]VUID, error) {
	indeg := make(map[slot]int)
	for _, u := range g.VUs {
		if u == nil {
			continue
		}
		if u.Kind != VMU || len(g.in[u.ID])+len(g.out[u.ID]) == 0 {
			// Non-VMU units get one slot; an edgeless VMU still needs a slot
			// so it appears in the returned order.
			indeg[slot{u.ID, ""}] = 0
		}
	}
	for _, e := range g.Edges {
		if e == nil {
			continue
		}
		// Ensure VMU port slots exist on both endpoints.
		if _, ok := indeg[g.slotOf(e.Src, e)]; !ok {
			indeg[g.slotOf(e.Src, e)] = 0
		}
		if _, ok := indeg[g.slotOf(e.Dst, e)]; !ok {
			indeg[g.slotOf(e.Dst, e)] = 0
		}
		if !e.LCD {
			indeg[g.slotOf(e.Dst, e)]++
		}
	}
	// Seed the queue in (unit, port) order, not map order: the FIFO below is
	// deterministic from there, so the returned order — and the point at
	// which a multi-port VMU appears in it — is the same on every call.
	var queue []slot
	for s, d := range indeg {
		if d == 0 {
			queue = append(queue, s)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].before(queue[j]) })
	var order []VUID
	emitted := make(map[VUID]bool)
	done := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		done++
		if !emitted[s.vu] {
			emitted[s.vu] = true
			order = append(order, s.vu)
		}
		for _, eid := range g.out[s.vu] {
			e := g.Edges[eid]
			if e.LCD || g.slotOf(e.Src, e) != s {
				continue
			}
			d := g.slotOf(e.Dst, e)
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if done != len(indeg) {
		// Name the first stuck slot, so the error is repeatable too.
		var stuck *slot
		for s, d := range indeg {
			if d > 0 && (stuck == nil || s.before(*stuck)) {
				stuck = &s
			}
		}
		return nil, fmt.Errorf("dfg: non-LCD cycle through %s", g.VUs[stuck.vu].Name)
	}
	return order, nil
}

// Reachable returns the set of units reachable from src along non-LCD edges,
// excluding src itself. VMU traversal is port-aware: entering a VMU on one
// port only continues out of the same port.
func (g *Graph) Reachable(src VUID) map[VUID]bool {
	seen := make(map[slot]bool)
	out := make(map[VUID]bool)
	var stack []slot
	push := func(s slot) {
		if !seen[s] {
			seen[s] = true
			out[s.vu] = true
			stack = append(stack, s)
		}
	}
	for _, eid := range g.out[src] {
		if e := g.Edges[eid]; !e.LCD {
			push(g.slotOf(e.Dst, e))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.out[s.vu] {
			e := g.Edges[eid]
			if e.LCD || g.slotOf(e.Src, e) != s {
				continue
			}
			push(g.slotOf(e.Dst, e))
		}
	}
	delete(out, src)
	return out
}

// Validate checks structural invariants of a synthesized VUDFG: no non-LCD
// cycles, edges reference live endpoints, token inits are non-negative, data
// lanes are positive, and every counter of a counter-driven unit iterates at
// least once (the builder clamps trips to 1; a zero trip would make a unit
// that never fires yet must complete).
func (g *Graph) Validate() error {
	for _, u := range g.VUs {
		if u == nil || !u.Kind.CounterDriven() {
			continue
		}
		for _, c := range u.Counters {
			if c.Trip < 1 {
				return fmt.Errorf("dfg: %s unit %s%s has a counter of trip %d", u.Kind, u.Name, u.Instance, c.Trip)
			}
		}
	}
	for _, e := range g.Edges {
		if e == nil {
			continue
		}
		if g.VUs[e.Src] == nil || g.VUs[e.Dst] == nil {
			return fmt.Errorf("dfg: edge %d references removed unit", e.ID)
		}
		if e.Kind == EData && e.Lanes < 1 {
			return fmt.Errorf("dfg: data edge %s has %d lanes", e.Label, e.Lanes)
		}
		if e.Init < 0 {
			return fmt.Errorf("dfg: edge %s has negative init %d", e.Label, e.Init)
		}
		if e.Kind == EToken && e.LCD && e.Init == 0 {
			return fmt.Errorf("dfg: LCD token edge %s needs initial credit", e.Label)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Stats summarizes a VUDFG for reports.
type Stats struct {
	VCUs, VMUs, AGs int
	TokenEdges      int
	DataEdges       int
	TotalOps        int
}

// Stats computes summary statistics over live units and edges.
func (g *Graph) Stats() Stats {
	var s Stats
	for _, u := range g.VUs {
		if u == nil {
			continue
		}
		switch u.Kind {
		case VMU:
			s.VMUs++
		case VAG:
			s.AGs++
		default:
			s.VCUs++
		}
		s.TotalOps += u.Ops
	}
	for _, e := range g.Edges {
		if e == nil {
			continue
		}
		if e.Kind == EToken {
			s.TokenEdges++
		} else {
			s.DataEdges++
		}
	}
	return s
}
