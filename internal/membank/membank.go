// Package membank implements SARA's memory partitioner (paper §III-B2,
// Fig 8): sharding a logical tensor across several virtual memory units,
// either because it exceeds one PMU's scratchpad capacity or to scale on-chip
// memory bandwidth when the computation around it is parallelized.
//
// When a loop is spatially unrolled, its read access acquires one request
// unit per unrolled lane, but a Plasticine PMU serves one read request stream
// at a time; without banking the memory serializes the lanes and
// parallelization stops scaling. The partitioner splits the VMU into banks
// and connects accessors either point-to-point — when the bank-address (BA)
// expression is statically resolvable and lanes align with banks — or
// through merge-VCU trees that filter each bank's requests from all lanes and
// each lane's responses from all banks (the crossbar of Fig 8b/c). Highly
// parallelized accesses get hierarchical merge trees so no unit exceeds the
// fabric's arity.
package membank

import (
	"fmt"
	"sort"

	"sara/internal/arch"
	"sara/internal/dfg"
	"sara/internal/ir"
)

// Options tunes the pass.
type Options struct {
	// DisableBanking turns the pass off; memories that exceed PMU capacity
	// become compile errors and parallel readers serialize. This is the
	// vanilla-Plasticine-compiler behaviour (paper §IV-C).
	DisableBanking bool
}

// Stats reports what the pass did.
type Stats struct {
	BankedMems   int
	BanksCreated int
	MergeVUs     int
	PointToPoint int // accessor streams wired bank-aligned without a crossbar
	Crossbars    int // accessor streams needing merge trees
}

// Apply banks every VMU that needs it. It must run after lowering and before
// global merging.
func Apply(g *dfg.Graph, spec *arch.Spec, opts Options) (*Stats, error) {
	st := &Stats{}
	for _, u := range g.LiveVUs() {
		if u.Kind != dfg.VMU || u.Bank >= 0 {
			continue
		}
		if err := bankVMU(g, spec, opts, u, st); err != nil {
			return nil, fmt.Errorf("membank: %s: %w", u.Name, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("membank: graph invalid after banking: %w", err)
	}
	return st, nil
}

// portGroup collects one access's edges at the VMU.
type portGroup struct {
	acc ir.AccessID
	dir ir.Dir
	// ins are edges into the VMU (read addresses or write data+addr), one
	// per accessor instance; outs are edges out (read data or write acks).
	ins, outs []dfg.EdgeID
}

// bankVMU decides the bank count for one VMU and rewires its accessors.
func bankVMU(g *dfg.Graph, spec *arch.Spec, opts Options, u *dfg.VU, st *Stats) error {
	groups := collectPorts(g, u)

	maxReadStreams := 1
	for _, pg := range groups {
		if pg.dir == ir.Read && len(pg.ins) > maxReadStreams {
			maxReadStreams = len(pg.ins)
		}
	}
	capBanks := 1
	if u.CapacityElems > spec.PMU.ScratchElems {
		capBanks = int((u.CapacityElems + spec.PMU.ScratchElems - 1) / spec.PMU.ScratchElems)
	}
	banks := maxReadStreams
	if capBanks > banks {
		banks = capBanks
	}
	if opts.DisableBanking {
		if capBanks > 1 {
			return fmt.Errorf("memory needs %d banks for capacity but banking is disabled", capBanks)
		}
		return nil
	}
	if banks <= 1 {
		return nil
	}
	st.BankedMems++
	st.BanksCreated += banks

	// Create the bank units.
	bankVUs := make([]*dfg.VU, banks)
	for b := 0; b < banks; b++ {
		bv := g.AddVU(dfg.VMU, fmt.Sprintf("%s.b%d", u.Name, b))
		bv.Mem = u.Mem
		bv.Bank = b
		bv.MultiBuffer = u.MultiBuffer
		bv.CapacityElems = (u.CapacityElems + int64(banks) - 1) / int64(banks)
		bv.Lanes = u.Lanes
		bankVUs[b] = bv
	}

	for _, pg := range groups {
		static := staticBA(g.Prog, pg.acc)
		switch {
		case static && len(pg.ins) == banks:
			// Bank-aligned: lane i talks only to bank i.
			for i := range pg.ins {
				g.ReattachDst(pg.ins[i], bankVUs[i].ID)
				if i < len(pg.outs) {
					g.ReattachSrc(pg.outs[i], bankVUs[i].ID)
				}
			}
			st.PointToPoint++
		default:
			st.Crossbars++
			rewireCrossbar(g, spec.PCU.MaxIn, pg, bankVUs, st)
		}
	}
	g.RemoveVU(u.ID)
	return nil
}

// collectPorts groups the VMU's edges by access port in deterministic order.
func collectPorts(g *dfg.Graph, u *dfg.VU) []*portGroup {
	byPort := map[string]*portGroup{}
	var names []string
	get := func(e *dfg.Edge) *portGroup {
		pg, ok := byPort[e.Port]
		if !ok {
			pg = &portGroup{acc: -1}
			byPort[e.Port] = pg
			names = append(names, e.Port)
		}
		return pg
	}
	for _, eid := range g.In(u.ID) {
		e := g.Edge(eid)
		pg := get(e)
		pg.ins = append(pg.ins, eid)
		if src := g.VU(e.Src); src != nil && src.Acc >= 0 {
			pg.acc = src.Acc
			pg.dir = g.Prog.Access(src.Acc).Dir
		}
	}
	for _, eid := range g.Out(u.ID) {
		e := g.Edge(eid)
		pg := get(e)
		pg.outs = append(pg.outs, eid)
	}
	sort.Strings(names)
	out := make([]*portGroup, 0, len(names))
	for _, n := range names {
		pg := byPort[n]
		if pg.acc < 0 {
			// Resolve by access name (the port string).
			for _, a := range g.Prog.Accs {
				if a.Name == n {
					pg.acc = a.ID
					pg.dir = a.Dir
					break
				}
			}
		}
		out = append(out, pg)
	}
	return out
}

// staticBA reports whether the access's bank address is compile-time
// resolvable: affine, streaming, or constant patterns qualify; data-dependent
// gathers do not (paper §III-B2 last paragraph).
func staticBA(p *ir.Program, acc ir.AccessID) bool {
	if acc < 0 {
		return false
	}
	return p.Access(acc).Pat.Kind != ir.PatRandom
}

// rewireCrossbar connects one access's request and response streams to every
// bank through (hierarchical) merge units of at most fanIn inputs each.
func rewireCrossbar(g *dfg.Graph, fanIn int, pg *portGroup, bankVUs []*dfg.VU, st *Stats) {
	port := ""
	if len(pg.ins) > 0 {
		port = g.Edge(pg.ins[0]).Port
	} else if len(pg.outs) > 0 {
		port = g.Edge(pg.outs[0]).Port
	}

	// Request side: each bank filters requests from all lanes. One lane can
	// broadcast directly; several lanes go through a merge tree per bank.
	for b, bv := range bankVUs {
		srcs := make([]dfg.VUID, 0, len(pg.ins))
		var tmpl *dfg.Edge
		for _, eid := range pg.ins {
			e := g.Edge(eid)
			srcs = append(srcs, e.Src)
			tmpl = e
		}
		if len(srcs) == 0 {
			continue
		}
		head := srcs[0]
		if len(srcs) > 1 {
			head = mergeTree(g, fanIn, srcs, fmt.Sprintf("merge.%s.b%d", port, b), tmpl.Lanes, "", st)
		}
		ne := g.AddEdge(head, bv.ID, dfg.EData)
		ne.Lanes = tmpl.Lanes
		ne.Port = port
		ne.Label = tmpl.Label + fmt.Sprintf(".b%d", b)
		ne.LCD = tmpl.LCD
		ne.Init = tmpl.Init
		// Every bank observes the whole request stream; the BA filter makes
		// it serve only its 1/banks share.
		ne.Decimate = len(bankVUs)
	}
	// Response side: each consumer filters responses from all banks by the
	// forwarded BA stream.
	for _, eid := range pg.outs {
		e := g.Edge(eid)
		srcs := make([]dfg.VUID, 0, len(bankVUs))
		for _, bv := range bankVUs {
			srcs = append(srcs, bv.ID)
		}
		// Bank outputs go through a per-consumer merge tree; bank->merge
		// edges keep the port so the VMU stays port-transparent.
		head := mergeTree(g, fanIn, srcs, fmt.Sprintf("merge.%s.resp", port), e.Lanes, port, st)
		g.ReattachSrc(eid, head)
	}
	// Drop the original request edges into the (about to be removed) VMU.
	for _, eid := range pg.ins {
		g.RemoveEdge(eid)
	}
}

// mergeTree builds a hierarchical merge-unit tree over srcs and returns its
// root (paper Fig 8c). Fan-in per node is capped by fanIn, the PCU input
// arity. Edges out of a VMU source carry port.
func mergeTree(g *dfg.Graph, fanIn int, srcs []dfg.VUID, name string, lanes int, port string, st *Stats) dfg.VUID {
	level := 0
	for len(srcs) > 1 {
		var next []dfg.VUID
		for i := 0; i < len(srcs); i += fanIn {
			j := i + fanIn
			if j > len(srcs) {
				j = len(srcs)
			}
			if j-i == 1 {
				next = append(next, srcs[i])
				continue
			}
			m := g.AddVU(dfg.VCUMerge, fmt.Sprintf("%s.l%d.%d", name, level, i/fanIn))
			m.Ops = 1
			m.Stages = 1
			m.Lanes = lanes
			st.MergeVUs++
			for _, s := range srcs[i:j] {
				e := g.AddEdge(s, m.ID, dfg.EData)
				e.Lanes = lanes
				e.Label = m.Name + ".in"
				if u := g.VU(s); u != nil && u.Kind == dfg.VMU {
					e.Port = port
				}
			}
			next = append(next, m.ID)
		}
		srcs = next
		level++
	}
	return srcs[0]
}
