// Package noc models the RDA's on-chip interconnection network (paper §II-B):
// a 2D switch grid with dimension-ordered (XY) routing, per-hop latency,
// hardware broadcast trees, and per-link bandwidth accounting. Spatially
// pipelined execution is sensitive to these dynamic network delays — control
// handshakes crossing the chip take tens of cycles — which is exactly the
// overhead CMMC's peer-to-peer scheme amortizes.
package noc

import "fmt"

// Coord is a switch-grid coordinate.
type Coord struct {
	R, C int
}

// String formats the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.R, c.C) }

// Grid is the network model.
type Grid struct {
	Rows, Cols int
	// HopLatency is the per-switch traversal latency in cycles.
	HopLatency int
	// LinkLanes is the vector width of one link; a wider stream
	// time-multiplexes.
	LinkLanes int

	// load accumulates offered traffic per directed link, in lane·rate units,
	// for congestion estimation.
	load map[link]float64
}

type link struct {
	from, to Coord
}

// New returns a grid model.
func New(rows, cols, hopLatency, linkLanes int) *Grid {
	return &Grid{Rows: rows, Cols: cols, HopLatency: hopLatency, LinkLanes: linkLanes, load: map[link]float64{}}
}

// Dist returns the Manhattan hop distance between two coordinates.
func (g *Grid) Dist(a, b Coord) int {
	return abs(a.R-b.R) + abs(a.C-b.C)
}

// Latency returns the cycle latency of a unicast between two coordinates,
// including switch ingress/egress.
func (g *Grid) Latency(a, b Coord) int {
	return (g.Dist(a, b) + 1) * g.HopLatency
}

// BroadcastLatency returns the latency of a broadcast from src to dsts: the
// network forms a tree, so the latency is that of the farthest destination.
func (g *Grid) BroadcastLatency(src Coord, dsts []Coord) int {
	worst := 0
	for _, d := range dsts {
		if l := g.Latency(src, d); l > worst {
			worst = l
		}
	}
	return worst
}

// RouteXY returns the dimension-ordered path from a to b, inclusive of both
// endpoints.
func (g *Grid) RouteXY(a, b Coord) []Coord {
	path := []Coord{a}
	cur := a
	for cur.C != b.C {
		if b.C > cur.C {
			cur.C++
		} else {
			cur.C--
		}
		path = append(path, cur)
	}
	for cur.R != b.R {
		if b.R > cur.R {
			cur.R++
		} else {
			cur.R--
		}
		path = append(path, cur)
	}
	return path
}

// AddTraffic accumulates a stream's offered load along its XY route.
// lanesPerCycle is the stream's average occupancy in lanes per cycle. It
// walks the route RouteXY returns, link by link in the same order, without
// building the path.
func (g *Grid) AddTraffic(a, b Coord, lanesPerCycle float64) {
	cur := a
	for cur.C != b.C {
		next := cur
		if b.C > cur.C {
			next.C++
		} else {
			next.C--
		}
		g.load[link{cur, next}] += lanesPerCycle
		cur = next
	}
	for cur.R != b.R {
		next := cur
		if b.R > cur.R {
			next.R++
		} else {
			next.R--
		}
		g.load[link{cur, next}] += lanesPerCycle
		cur = next
	}
}

// ResetTraffic clears accumulated load.
func (g *Grid) ResetTraffic() { g.load = map[link]float64{} }

// Congestion returns the worst link utilization (offered lanes per cycle
// divided by link capacity). Values above 1 mean the network throttles the
// pipeline by that factor.
func (g *Grid) Congestion() float64 {
	worst := 0.0
	for _, l := range g.load {
		if u := l / float64(g.LinkLanes); u > worst {
			worst = u
		}
	}
	return worst
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
