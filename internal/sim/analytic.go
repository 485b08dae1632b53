package sim

import (
	"fmt"

	"sara/internal/dfg"
	"sara/internal/ir"
)

// Analytic runs the steady-state bottleneck engine: total cycles are the
// largest of the per-unit busy times (firings × effective initiation
// interval), the memory-system bounds, and the synchronization round-trip
// bounds, plus the pipeline fill latency. The model is validated against the
// cycle engine in the test suite; it is the engine the paper-scale sweeps
// use.
func Analytic(d *Design) (*Result, error) {
	if err := d.G.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	eb := elemBytes(d)

	// DRAM channel sharing: address generators bind round-robin.
	nAG := 0
	for _, u := range d.G.LiveVUs() {
		if u.Kind == dfg.VAG {
			nAG++
		}
	}
	sharers := 1
	if ch := d.Spec.DRAM.Channels; nAG > ch {
		sharers = (nAG + ch - 1) / ch
	}
	chanRate := d.Spec.DRAM.BytesPerCyclePerChannel / float64(sharers)

	best := 0.0
	bottleneck := ""
	bottleneckII := 0.0
	consider := func(name string, cycles float64, ii float64) {
		if cycles > best {
			best = cycles
			bottleneck = name
			bottleneckII = ii
		}
	}

	var totalBusy float64
	var nCompute int
	var totalDRAMBytes float64
	busyOf := map[dfg.VUID]float64{}

	for _, u := range d.G.LiveVUs() {
		switch u.Kind {
		case dfg.VMU:
			// Separate read and write servers, one service per cycle each.
			// A banked broadcast stream is filtered at line rate: only the
			// bank's 1/Decimate share occupies service slots.
			var readWork, writeWork float64
			for _, eid := range d.G.In(u.ID) {
				e := d.G.Edge(eid)
				w := effFirings(d, d.G.VU(e.Src))
				if e.Decimate > 1 {
					w /= float64(e.Decimate)
				}
				if isWritePort(d.G, e.Port) {
					writeWork += w
				} else {
					readWork += w
				}
			}
			busyOf[u.ID] = readWork + writeWork
			consider(u.Name+u.Instance+"(rd)", readWork, 1)
			consider(u.Name+u.Instance+"(wr)", writeWork, 1)
		case dfg.VCUMerge, dfg.VCURetime, dfg.VCUSync:
			// Merge nodes inspect one element per input per cycle (vector
			// filters); retimers forward one per cycle; sync units fire once
			// per token round.
			var work float64
			switch u.Kind {
			case dfg.VCUMerge, dfg.VCUSync:
				for _, eid := range d.G.In(u.ID) {
					var w float64
					if u.Kind == dfg.VCUSync {
						w = tokenPushes(d, d.G.Edge(eid))
					} else {
						w = effFirings(d, d.G.VU(d.G.Edge(eid).Src))
					}
					if w > work {
						work = w
					}
				}
			default:
				for _, eid := range d.G.In(u.ID) {
					work += effFirings(d, d.G.VU(d.G.Edge(eid).Src))
				}
			}
			busyOf[u.ID] = work
			consider(u.Name+u.Instance, work, 1)
		default:
			f := effFirings(d, u)
			ii := 1.0
			if u.Kind == dfg.VAG {
				bytesPerFiring := float64(u.Lanes * eb)
				if u.Acc >= 0 && d.G.Prog.Access(u.Acc).Pat.Kind == ir.PatRandom {
					// Gathers move whole bursts per element group.
					if bb := float64(d.Spec.DRAM.BurstBytes); bytesPerFiring < bb {
						bytesPerFiring = bb
					}
				}
				if r := bytesPerFiring / chanRate; r > ii {
					ii = r
				}
				totalDRAMBytes += f * bytesPerFiring
			}
			// Credit-window throttle: an on-chip stream with latency beyond
			// its buffer depth cannot sustain one element per cycle.
			for _, eid := range d.G.In(u.ID) {
				e := d.G.Edge(eid)
				if e.Kind != dfg.EData {
					continue
				}
				if src := d.G.VU(e.Src); src != nil && src.Kind == dfg.VAG {
					continue
				}
				if lat := float64(d.edgeLatency(e)); lat > float64(e.Depth) {
					if m := lat / float64(e.Depth); m > ii {
						ii = m
					}
				}
			}
			// Unretimed slack stalls the consumer: a value crossing s extra
			// delay levels occupies the input buffer s×stage-latency cycles
			// longer, throttling throughput by (depth+stall)/depth.
			for _, eid := range d.G.In(u.ID) {
				e := d.G.Edge(eid)
				if e.Slack > 0 {
					stall := float64(e.Slack * d.Spec.PCU.Stages)
					depth := float64(e.Depth)
					if m := (depth + stall) / depth; m > ii {
						ii = m
					}
				}
			}
			busy := f * ii
			busyOf[u.ID] = busy
			if u.Kind.IsCompute() {
				totalBusy += busy
				nCompute++
			}
			consider(u.Name+u.Instance, busy, ii)
		}
	}

	// Global DRAM roofline.
	consider("dram-roofline", totalDRAMBytes/d.Spec.DRAM.TotalBytesPerCycle(), 0)

	// Synchronization round trips: every seeded (LCD) edge with Init credits
	// bounds its pop scope to one round trip per Init pops. A strict credit
	// of 1 fully serializes the two accessors — the producer's and
	// consumer's work add instead of overlapping — which is precisely the
	// cost CMMC's credit relaxation (multibuffering) removes.
	for _, e := range d.G.LiveEdges() {
		if !e.LCD || e.Init <= 0 {
			continue
		}
		src, dst := d.G.VU(e.Src), d.G.VU(e.Dst)
		if src == nil || dst == nil {
			continue
		}
		pops := popCount(d, e, dst)
		rtt := float64(2*d.edgeLatency(e) + d.Spec.PCU.Stages + d.Spec.PMU.Stages)
		bound := pops * rtt / float64(e.Init)
		if e.Kind == dfg.EToken && e.Init == 1 {
			bound = effFirings(d, src) + effFirings(d, dst) + pops*rtt
		}
		consider("credit:"+e.Label, bound, rtt)
	}

	// Sequential phases: a forward token popped only once or twice gates the
	// consumer's entire execution on the producer's completion (e.g. the
	// passes of a multi-pass sort chained through DRAM buffers). A
	// finish-time DP over the acyclic graph captures the chained makespan:
	// one-shot token edges compose finish→start; data edges force a consumer
	// to finish no earlier than its producers (element conservation).
	if order, err := d.G.TopoSort(); err == nil {
		// Finish times are tracked per VMU port — a memory's access streams
		// are independent, so a read port's lineage must not leak into the
		// write port's ack consumers (mirroring TopoSort's port slots).
		type slot struct {
			id   dfg.VUID
			port string
		}
		finish := map[slot]float64{}
		slotOf := func(id dfg.VUID, e *dfg.Edge) slot {
			if u := d.G.VU(id); u != nil && u.Kind == dfg.VMU {
				return slot{id, e.Port}
			}
			return slot{id, ""}
		}
		chainBest, chainName := 0.0, ""
		for _, id := range order {
			u := d.G.VU(id)
			if u == nil {
				continue
			}
			if u.Kind == dfg.VMU {
				// Per-port: finish = upstream finish + the port's own work.
				for _, eid := range d.G.In(id) {
					e := d.G.Edge(eid)
					if e.LCD {
						continue
					}
					w := effFirings(d, d.G.VU(e.Src))
					if e.Decimate > 1 {
						w /= float64(e.Decimate)
					}
					s := slot{id, e.Port}
					if f := finish[slotOf(e.Src, e)] + w; f > finish[s] {
						finish[s] = f
					}
				}
				continue
			}
			st := 0.0
			for _, eid := range d.G.In(id) {
				e := d.G.Edge(eid)
				if e.LCD {
					continue
				}
				if e.Kind == dfg.EToken && popCount(d, e, u) <= 2 {
					if f := finish[slotOf(e.Src, e)]; f > st {
						st = f
					}
				}
			}
			fin := st + busyOf[id]
			for _, eid := range d.G.In(id) {
				e := d.G.Edge(eid)
				if e.LCD || e.Kind != dfg.EData {
					continue
				}
				if f := finish[slotOf(e.Src, e)]; f > fin {
					fin = f
				}
			}
			finish[slot{id, ""}] = fin
			if fin > chainBest {
				chainBest = fin
				chainName = u.Name + u.Instance
			}
		}
		consider("phase-chain:"+chainName, chainBest, 0)
	}

	// Placed designs expose per-link congestion: offered load beyond a
	// link's lane capacity throttles the whole pipeline by that factor
	// (paper §II-B — why PnR feasibility matters).
	if d.Placement != nil {
		if cong := d.Placement.Grid.Congestion(); cong > 1 {
			best *= cong
			bottleneck = "noc-congestion(" + bottleneck + ")"
		}
	}

	fill := fillLatency(d)
	cycles := int64(best + fill + 1)
	busyFrac := 0.0
	if nCompute > 0 && cycles > 0 {
		busyFrac = totalBusy / (float64(nCompute) * float64(cycles))
	}
	return &Result{
		Cycles:       cycles,
		Engine:       "analytic",
		BottleneckVU: bottleneck,
		BottleneckII: bottleneckII,
		ComputeBusy:  busyFrac,
	}, nil
}

// effFirings returns the unit's expected firings, discounting branch-clause
// exclusivity: a unit under one clause of a branch only executes the
// iterations its clause is taken (expected 1/2 per enclosing branch,
// paper Fig 4c).
func effFirings(d *Design, u *dfg.VU) float64 {
	if u == nil {
		return 0
	}
	f := float64(u.Firings())
	if u.Block == ir.NoCtrl {
		return f
	}
	for id := u.Block; id != ir.NoCtrl; id = d.G.Prog.Ctrl(id).Parent {
		if d.G.Prog.Ctrl(id).Clause != ir.ClauseNone {
			f /= 2
		}
	}
	return f
}

// tokenPushes estimates how many tokens an edge carries over the program.
func tokenPushes(d *Design, e *dfg.Edge) float64 {
	src := d.G.VU(e.Src)
	if src == nil {
		return 0
	}
	if e.PushCtrl == ir.NoCtrl {
		return effFirings(d, src)
	}
	// Pushes happen when the counter at PushCtrl wraps: the product of trips
	// outside that level.
	n := 1.0
	for _, c := range src.Counters {
		if c.Ctrl == e.PushCtrl {
			break
		}
		n *= float64(c.Trip)
	}
	return n
}

// popCount returns how many times the destination pops the edge.
func popCount(d *Design, e *dfg.Edge, dst *dfg.VU) float64 {
	if e.PopCtrl == ir.NoCtrl {
		return effFirings(d, dst)
	}
	n := 1.0
	for _, c := range dst.Counters {
		if c.Ctrl == e.PopCtrl {
			break
		}
		n *= float64(c.Trip)
	}
	return n
}

// isWritePort resolves a VMU port name (an access name) to its direction.
func isWritePort(g *dfg.Graph, port string) bool {
	for _, a := range g.Prog.Accs {
		if a.Name == port {
			return a.Dir == ir.Write
		}
	}
	return false
}

// fillLatency estimates the pipeline fill: the longest path through the
// non-LCD graph weighted by unit stages plus stream latency.
func fillLatency(d *Design) float64 {
	order, err := d.G.TopoSort()
	if err != nil {
		return 0
	}
	depth := map[dfg.VUID]float64{}
	best := 0.0
	for _, id := range order {
		u := d.G.VU(id)
		if u == nil {
			continue
		}
		base := depth[id] + float64(u.Stages)
		for _, eid := range d.G.Out(id) {
			e := d.G.Edge(eid)
			if e.LCD {
				continue
			}
			cand := base + float64(d.edgeLatency(e))
			if cand > depth[e.Dst] {
				depth[e.Dst] = cand
			}
		}
		if base > best {
			best = base
		}
	}
	return best
}
