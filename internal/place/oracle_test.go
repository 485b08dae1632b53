package place

import (
	"fmt"
	"math"
	"math/rand"

	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/merge"
	"sara/internal/noc"
)

// OraclePlace exposes the reference placer to the external equivalence test.
var OraclePlace = oraclePlace

// oraclePlace is the full-recompute annealer Place replaced, kept verbatim as
// the reference the delta-evaluating placer must match bit for bit: it
// recomputes the whole wire cost after every move and scans the group for
// the occupant of the target position.
func oraclePlace(g *dfg.Graph, m *merge.Result, spec *arch.Spec, opts Options) (*Placement, error) {
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
		return nil, fmt.Errorf("place: design needs %d PCU / %d PMU / %d AG, chip has %d/%d/%d",
			len(pcus), len(pmus), len(ags), len(pcuPos), len(pmuPos), len(agPos))
	}

	grid := noc.New(spec.Rows, spec.Cols+2, spec.NetHopLatencyCycles, spec.LinkLanes)
	p := &Placement{Grid: grid, Coord: map[int]noc.Coord{}}
	for i, id := range pcus {
		p.Coord[id] = pcuPos[i]
	}
	for i, id := range pmus {
		p.Coord[id] = pmuPos[i]
	}
	for i, id := range ags {
		p.Coord[id] = agPos[i]
	}

	// Stream weights between PU slots.
	type pair struct{ a, b int }
	weights := map[pair]float64{}
	for _, e := range g.LiveEdges() {
		pa, okA := m.PUOf[e.Src]
		pb, okB := m.PUOf[e.Dst]
		if !okA || !okB || pa == pb {
			continue
		}
		weights[pair{pa, pb}] += float64(e.Lanes)
	}
	cost := func() float64 {
		c := 0.0
		for pr, w := range weights {
			c += w * float64(grid.Dist(p.Coord[pr.a], p.Coord[pr.b]))
		}
		return c
	}

	// Simulated annealing over same-type swaps (including empty positions).
	rng := rand.New(rand.NewSource(opts.Seed))
	groups := [][]int{pcus, pmus, ags}
	positions := [][]noc.Coord{pcuPos, pmuPos, agPos}
	iters := opts.Iters
	if iters <= 0 {
		iters = 200 * (len(m.PUs) + 1)
	}
	cur := cost()
	temp := cur/10 + 1
	for it := 0; it < iters; it++ {
		gi := rng.Intn(3)
		ids, pos := groups[gi], positions[gi]
		if len(ids) == 0 || len(pos) < 2 {
			continue
		}
		a := ids[rng.Intn(len(ids))]
		// Swap a's coordinate with another (possibly unused) position.
		np := pos[rng.Intn(len(pos))]
		old := p.Coord[a]
		if np == old {
			continue
		}
		// If another PU holds np, swap; else move.
		var other = -1
		for _, b := range ids {
			if p.Coord[b] == np {
				other = b
				break
			}
		}
		p.Coord[a] = np
		if other >= 0 {
			p.Coord[other] = old
		}
		nc := cost()
		d := nc - cur
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur = nc
		} else {
			p.Coord[a] = old
			if other >= 0 {
				p.Coord[other] = np
			}
		}
		temp *= 0.9995
		if temp < 1e-3 {
			temp = 1e-3
		}
	}

	p.WireCost = cur
	grid.ResetTraffic()
	for pr, w := range weights {
		a, b := p.Coord[pr.a], p.Coord[pr.b]
		if h := grid.Dist(a, b); h > p.MaxHop {
			p.MaxHop = h
		}
		grid.AddTraffic(a, b, w/16)
	}
	return p, nil
}
