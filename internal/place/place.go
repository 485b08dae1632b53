// Package place implements the placement half of SARA's placement-and-routing
// phase (paper Fig 3): assigning merged physical-unit slots to coordinates of
// the switch grid so that heavily communicating units sit close together.
//
// The paper leans on prior CGRA PnR work for this phase; here a deterministic
// simulated-annealing placer over the checkerboard PCU/PMU layout (AGs on the
// chip boundary) produces the per-stream hop distances the cycle simulator
// charges as network latency, plus per-link congestion estimates.
package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/merge"
	"sara/internal/noc"
)

// Options tunes the placer.
type Options struct {
	// Seed makes the annealer deterministic (default 1).
	Seed int64
	// Iters caps annealing iterations (default 200·(n+1) for n PU slots).
	Iters int
}

// Placement is the placed design.
type Placement struct {
	Grid  *noc.Grid
	Coord map[int]noc.Coord // PU slot -> grid coordinate
	// WireCost is Σ over streams of lanes × hop distance.
	WireCost float64
	// MaxHop is the longest stream distance.
	MaxHop int
}

// EdgeHops returns the hop distance a stream travels given its endpoints'
// PU slots.
func (p *Placement) EdgeHops(m *merge.Result, src, dst dfg.VUID) int {
	ps, okS := m.PUOf[src]
	pd, okD := m.PUOf[dst]
	if !okS || !okD || ps == pd {
		return 0
	}
	return p.Grid.Dist(p.Coord[ps], p.Coord[pd])
}

// stream is the total lane count of the live streams from PU a to PU b.
type stream struct {
	a, b  int
	lanes int64
}

// arc is one CSR adjacency entry: a stream between a PU and PU to, in either
// direction.
type arc struct {
	to    int
	lanes int64
}

// Place assigns every PU slot of the merged design to a grid coordinate.
// It errors when the design does not fit the chip — the resource-exhaustion
// condition of the scalability study (paper §IV-A).
//
// The annealer evaluates a move by the cost change around the one or two PUs
// it touches. Lane counts and hop distances are integers, so the running cost
// is exact in int64 and equals a from-scratch recompute after every move.
func Place(g *dfg.Graph, m *merge.Result, spec *arch.Spec, opts Options) (*Placement, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	pcuPos, pmuPos, agPos := slots(spec)
	var pcus, pmus, ags []int
	for id, pu := range m.PUs {
		switch pu.Type {
		case arch.PCU:
			pcus = append(pcus, id)
		case arch.PMU:
			pmus = append(pmus, id)
		default:
			ags = append(ags, id)
		}
	}
	if len(pcus) > len(pcuPos) || len(pmus) > len(pmuPos) || len(ags) > len(agPos) {
		return nil, fmt.Errorf("design needs %d PCU / %d PMU / %d AG, chip has %d/%d/%d",
			len(pcus), len(pmus), len(ags), len(pcuPos), len(pmuPos), len(agPos))
	}
	groups := [][]int{pcus, pmus, ags}
	positions := [][]noc.Coord{pcuPos, pmuPos, agPos}

	// Working placement: coord by PU slot, and the PU (or -1) at each grid
	// position. The position sets of the three types are disjoint.
	cols := spec.Cols + 2
	grid := noc.New(spec.Rows, cols, spec.NetHopLatencyCycles, spec.LinkLanes)
	coord := make([]noc.Coord, len(m.PUs))
	occ := make([]int, spec.Rows*cols)
	at := func(c noc.Coord) int { return c.R*cols + c.C }
	for i := range occ {
		occ[i] = -1
	}
	for gi, ids := range groups {
		for i, id := range ids {
			coord[id] = positions[gi][i]
			occ[at(coord[id])] = id
		}
	}

	// Streams between PU slots, one entry per directed pair in (a, b) order.
	edges := g.LiveEdges()
	streams := make([]stream, 0, len(edges))
	for _, e := range edges {
		pa, okA := m.PUOf[e.Src]
		pb, okB := m.PUOf[e.Dst]
		if !okA || !okB || pa == pb {
			continue
		}
		streams = append(streams, stream{pa, pb, int64(e.Lanes)})
	}
	slices.SortFunc(streams, func(x, y stream) int {
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	n := 0
	for _, s := range streams {
		if n > 0 && streams[n-1].a == s.a && streams[n-1].b == s.b {
			streams[n-1].lanes += s.lanes
		} else {
			streams[n] = s
			n++
		}
	}
	streams = streams[:n]

	// Per-PU adjacency in CSR form: once filled, PU u's arcs are
	// adj[off[u]:off[u+1]]. Degrees are counted into off[u+2] and
	// prefix-summed, so off[u+1] starts as u's write cursor and ends as u's
	// upper bound — no separate cursor slice.
	off := make([]int, len(m.PUs)+2)
	adj := make([]arc, 2*len(streams))
	for _, s := range streams {
		off[s.a+2]++
		off[s.b+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for _, s := range streams {
		adj[off[s.a+1]] = arc{s.b, s.lanes}
		off[s.a+1]++
		adj[off[s.b+1]] = arc{s.a, s.lanes}
		off[s.b+1]++
	}
	// around is the wire cost of the streams touching PU a and, when a swap
	// partner exists, PU other. A stream between the two is counted twice,
	// before and after alike, and a swap leaves its length unchanged, so it
	// cancels in the difference.
	around := func(a, other int) int64 {
		var c int64
		for _, e := range adj[off[a]:off[a+1]] {
			c += e.lanes * int64(grid.Dist(coord[a], coord[e.to]))
		}
		if other >= 0 {
			for _, e := range adj[off[other]:off[other+1]] {
				c += e.lanes * int64(grid.Dist(coord[other], coord[e.to]))
			}
		}
		return c
	}

	var cur int64
	for _, s := range streams {
		cur += s.lanes * int64(grid.Dist(coord[s.a], coord[s.b]))
	}

	// Simulated annealing over same-type swaps (including empty positions).
	rng := rand.New(rand.NewSource(opts.Seed))
	iters := opts.Iters
	if iters <= 0 {
		iters = 200 * (len(m.PUs) + 1)
	}
	temp := float64(cur)/10 + 1
	for it := 0; it < iters; it++ {
		gi := rng.Intn(3)
		ids, pos := groups[gi], positions[gi]
		if len(ids) == 0 || len(pos) < 2 {
			continue
		}
		a := ids[rng.Intn(len(ids))]
		// Swap a's coordinate with another (possibly unused) position.
		np := pos[rng.Intn(len(pos))]
		old := coord[a]
		if np == old {
			continue
		}
		// If another PU holds np, swap; else move.
		other := occ[at(np)]
		before := around(a, other)
		coord[a] = np
		if other >= 0 {
			coord[other] = old
		}
		d := around(a, other) - before
		if d <= 0 || rng.Float64() < math.Exp(-float64(d)/temp) {
			cur += d
			occ[at(np)], occ[at(old)] = a, other
		} else {
			coord[a] = old
			if other >= 0 {
				coord[other] = np
			}
		}
		temp *= 0.9995
		if temp < 1e-3 {
			temp = 1e-3
		}
	}

	p := &Placement{Grid: grid, Coord: make(map[int]noc.Coord, len(coord)), WireCost: float64(cur)}
	for id, c := range coord {
		p.Coord[id] = c
	}
	for _, s := range streams {
		a, b := coord[s.a], coord[s.b]
		if h := grid.Dist(a, b); h > p.MaxHop {
			p.MaxHop = h
		}
		grid.AddTraffic(a, b, float64(s.lanes)/16)
	}
	return p, nil
}

// slots enumerates the chip's physical positions per unit type: PCUs and
// PMUs checkerboarded over the interior columns, AGs on the boundary columns.
func slots(spec *arch.Spec) (pcu, pmu, ag []noc.Coord) {
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			co := noc.Coord{R: r, C: c + 1} // interior columns 1..Cols
			if (r+c)%2 == 0 {
				if len(pcu) < spec.NumPCU {
					pcu = append(pcu, co)
				} else if len(pmu) < spec.NumPMU {
					pmu = append(pmu, co)
				}
			} else {
				if len(pmu) < spec.NumPMU {
					pmu = append(pmu, co)
				} else if len(pcu) < spec.NumPCU {
					pcu = append(pcu, co)
				}
			}
		}
	}
	for r := 0; r < spec.Rows && len(ag) < spec.NumAG; r++ {
		ag = append(ag, noc.Coord{R: r, C: 0})
		if len(ag) < spec.NumAG {
			ag = append(ag, noc.Coord{R: r, C: spec.Cols + 1})
		}
	}
	return
}
