package sim

// Components: the independent parts of a design. Unrolling an outer loop
// compiles to parallel instances that share no stream (paper §IV-C), and
// their VAGs often sit on DRAM channels no other instance uses. Nothing one
// such part does can reach another, so the event engine runs them one after
// another, each from cycle 0 (event.go), and the fast-forward looks for each
// part's own steady state: the instances of a design drift out of phase, so
// the state of all of them together rarely repeats.
//
// A component is a connected part of the graph of live units and live edges
// in which, besides, every VAG bound to a DRAM channel shares the component
// of every other VAG on that channel. The split is exact for Results:
//
//   - Every Result field is a sum or a maximum over counter-driven units
//     (firings, busy cycles, stalls, the last firing's end) and the DRAM
//     channels of their VAGs; forwarders add nothing to it.
//   - A unit's evaluations read and write only its own edges, and its VAG's
//     channel; so a component evolves cycle by cycle as it does in the
//     single loop, and its share of the Result stops moving once its last
//     counter-driven unit completes.
//
// The run's length is one past the latest last firing over the components;
// the single loop ends on the same cycle, when its last unit completes.
// Components without a counter-driven unit contribute nothing and are not
// run.
//
// The single loop over the whole design stays the engine's reference, and
// runs instead when the split could be told apart from it: a run that
// records a profile (forwarders keep recording after their component
// completes), CycleEngineNoFastPath, and a component that deadlocks
// or reaches the cycle cap (the single loop's error names the whole design's
// state).

import "sara/internal/dfg"

// component is the part of a design one event run covers: its live units and
// edges in ascending ID order, and the DRAM channels its VAGs are bound to.
type component struct {
	vus   []*vuState
	edges []*edgeState
	chans []int
	// remaining is the number of counter-driven units that must complete.
	remaining int
}

// whole returns the component that spans the design: every live unit and
// edge and every DRAM channel.
func (cs *cycleSim) whole() *component {
	c := &component{remaining: cs.countRemaining()}
	for _, vs := range cs.vus {
		if vs != nil {
			c.vus = append(c.vus, vs)
		}
	}
	for _, es := range cs.edges {
		if es != nil {
			c.edges = append(c.edges, es)
		}
	}
	for ch := 0; ch < cs.dram.Channels(); ch++ {
		c.chans = append(c.chans, ch)
	}
	return c
}

// components splits the design into the components that have a
// counter-driven unit, in order of their lowest unit ID. It returns nil when
// the run must be one loop: the design is one component, no unit needs to
// complete, or the split could be told apart from the single loop (see the
// file comment).
func (cs *cycleSim) components() []*component {
	if cs.noFastPaths || cs.rec != nil {
		return nil
	}
	// Union-find over unit IDs; a root is its set's lowest ID.
	parent := make([]int32, len(cs.vus))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		a, b = find(a), find(b)
		if a > b {
			a, b = b, a
		}
		parent[b] = a
	}
	for _, es := range cs.edges {
		if es != nil {
			union(int32(es.e.Src), int32(es.e.Dst))
		}
	}
	// chanVAG is the first VAG bound to each channel, -1 for none.
	chanVAG := make([]int32, cs.dram.Channels())
	for ch := range chanVAG {
		chanVAG[ch] = -1
	}
	for id, vs := range cs.vus {
		switch {
		case vs == nil:
		case vs.kind == dfg.VAG:
			if first := chanVAG[vs.agChan]; first >= 0 {
				union(first, int32(id))
			} else {
				chanVAG[vs.agChan] = int32(id)
			}
		}
	}
	// Number the components by their roots, in ascending ID order.
	var all []*component
	of := make([]int32, len(cs.vus)) // root ID → component index + 1
	for id, vs := range cs.vus {
		if vs == nil {
			continue
		}
		r := find(int32(id))
		if of[r] == 0 {
			all = append(all, &component{})
			of[r] = int32(len(all))
		}
		c := all[of[r]-1]
		c.vus = append(c.vus, vs)
		if vs.isCounterDriven() {
			c.remaining++
		}
	}
	if len(all) < 2 {
		return nil
	}
	for _, es := range cs.edges {
		if es != nil {
			c := all[of[find(int32(es.e.Src))]-1]
			c.edges = append(c.edges, es)
		}
	}
	for ch, id := range chanVAG {
		if id >= 0 {
			c := all[of[find(id)]-1]
			c.chans = append(c.chans, ch)
		}
	}
	work := all[:0]
	for _, c := range all {
		if c.remaining > 0 {
			work = append(work, c)
		}
	}
	if len(work) == 0 {
		return nil
	}
	return work
}
