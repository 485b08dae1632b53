// Package dfg defines the Virtual Unit Dataflow Graph (VUDFG), the
// hierarchical dataflow representation SARA synthesizes from the imperative
// control hierarchy (paper §III, Fig 3).
//
// The top level of the VUDFG is a graph of virtual units (VUs) — virtual
// compute units (VCUs), virtual memory units (VMUs), and DRAM address
// generators — connected by streams. Streams carry either data elements or
// single-bit tokens; tokens with non-zero initial occupancy are credits.
// The inner level of the hierarchy is each VCU's operation dataflow graph,
// summarized here by op counts and pipeline depth (the partitioner subdivides
// VUs whose inner graphs exceed physical-unit capacity).
package dfg

import (
	"fmt"
	"strings"

	"sara/internal/ir"
)

// VUID identifies a virtual unit within a Graph.
type VUID int

// NoVU is the VUID zero-substitute for "no unit".
const NoVU VUID = -1

// VUKind enumerates virtual unit roles.
type VUKind int

const (
	// VCUCompute executes a hyperblock's datapath.
	VCUCompute VUKind = iota
	// VCURequest generates the address (and carries the data for writes)
	// stream of one memory access (paper Fig 2c: F', G').
	VCURequest
	// VCUResponse collects the response/acknowledgment stream of one access.
	// Response VCUs hold only the accessor's counter chain, no datapath, and
	// are the sources of CMMC forward tokens.
	VCUResponse
	// VCUBounds computes dynamic loop bounds or while-loop conditions.
	VCUBounds
	// VCUCond evaluates an outer-branch condition and broadcasts it.
	VCUCond
	// VCUMerge filters/merges banked request or response streams
	// (paper §III-B2, Fig 8).
	VCUMerge
	// VCUSync fans token streams in or out when producer and consumer
	// instance counts differ.
	VCUSync
	// VCURetime is a pass-through buffer inserted to balance path delays
	// (paper §III-B1a).
	VCURetime
	// VMU holds one on-chip data structure (or one bank shard of it).
	VMU
	// VAG is a DRAM address generator / interface unit serving one off-chip
	// access stream.
	VAG
)

// CounterDriven reports whether units of the kind fire a fixed number of
// times, stepped by their counter chain (VU.Firings). Memories, merges,
// syncs and retime buffers instead forward whatever arrives.
func (k VUKind) CounterDriven() bool {
	switch k {
	case VMU, VCUMerge, VCURetime, VCUSync:
		return false
	}
	return true
}

// String returns a short mnemonic for the kind.
func (k VUKind) String() string {
	switch k {
	case VCUCompute:
		return "vcu"
	case VCURequest:
		return "req"
	case VCUResponse:
		return "resp"
	case VCUBounds:
		return "bounds"
	case VCUCond:
		return "cond"
	case VCUMerge:
		return "merge"
	case VCUSync:
		return "sync"
	case VCURetime:
		return "retime"
	case VMU:
		return "vmu"
	case VAG:
		return "ag"
	default:
		return fmt.Sprintf("vu(%d)", int(k))
	}
}

// IsCompute reports whether the unit maps to a compute PU (PCU) as opposed to
// a memory PU (PMU) or DRAM interface.
func (k VUKind) IsCompute() bool {
	switch k {
	case VMU, VAG:
		return false
	default:
		return true
	}
}

// Counter is one level of a VCU's chained counter, outermost first. A VCU's
// innermost counter increments every enabled cycle; when a counter saturates
// it bumps the next outer one (paper §III-A1).
type Counter struct {
	Ctrl ir.CtrlID // the loop this level corresponds to (NoCtrl for synthetic)
	Trip int       // iterations of this level per wrap of the outer level
	// Dynamic marks counters whose trip is data-dependent (dynamic bounds or
	// do-while): Trip is then the expected value used for estimation.
	Dynamic bool
}

// VU is one virtual unit of the VUDFG.
type VU struct {
	ID   VUID
	Kind VUKind
	Name string

	// Block is the source hyperblock for compute-like units (NoCtrl for
	// VMU/VAG/merge/retime).
	Block ir.CtrlID
	// Mem is the logical memory for VMU and VAG units (and for request/
	// response units, the memory they access).
	Mem ir.MemID
	// Acc is the access this request/response unit serves.
	Acc ir.AccessID
	// Bank is the shard index when the memory partitioner has split Mem
	// across several VMUs; -1 before banking.
	Bank int

	// Ops is the datapath op count (compute partitioning cost).
	Ops int
	// Stages is the pipeline depth of the unit's inner dataflow graph.
	Stages int
	// Lanes is the SIMD vector width the unit processes per firing.
	Lanes int
	// Counters is the chained counter stack, outermost first.
	Counters []Counter
	// HasAccum marks units containing a loop-carried accumulation; their
	// inner LCD cycle must stay within one partition (paper Fig 7).
	HasAccum bool

	// CapacityElems is the scratchpad occupancy for VMUs, in elements
	// (already multiplied by MultiBuffer).
	CapacityElems int64
	// MultiBuffer is the VMU's buffering depth.
	MultiBuffer int

	// Instance labels the unroll instance this unit belongs to, e.g.
	// "[2][0]"; empty when no enclosing loop is spatially unrolled.
	Instance string
}

// Firings returns the total number of firings of the unit per program run:
// the product of its counter trips.
func (u *VU) Firings() int64 {
	n := int64(1)
	for _, c := range u.Counters {
		n *= int64(c.Trip)
	}
	return n
}

// EdgeKind enumerates stream kinds.
type EdgeKind int

const (
	// EData is an element-carrying stream: one element (of Lanes lanes) per
	// producer firing, consumed one per consumer firing.
	EData EdgeKind = iota
	// EToken is a CMMC synchronization stream: single-bit pulses pushed when
	// the source's counter at PushCtrl saturates and popped when the
	// destination's counter at PopCtrl saturates. Init > 0 makes it a credit
	// (backward) edge.
	EToken
)

// EdgeID identifies an edge within a Graph.
type EdgeID int

// Edge is one stream of the VUDFG.
type Edge struct {
	ID   EdgeID
	Src  VUID
	Dst  VUID
	Kind EdgeKind

	// Lanes is the vector width of a data stream (1 for scalars and tokens).
	Lanes int
	// Depth is the receiver-side buffer depth in elements.
	Depth int

	// Init is the number of tokens pre-loaded at the destination. Credits
	// (backward edges of the consistency analysis) have Init >= 1
	// (paper §III-A1).
	Init int
	// PushCtrl is the counter level whose saturation pushes a token at the
	// source; NoCtrl means one push per source firing.
	PushCtrl ir.CtrlID
	// PopCtrl is the counter level whose saturation pops a token at the
	// destination; NoCtrl means one pop per destination firing.
	PopCtrl ir.CtrlID

	// LCD marks edges that close a loop-carried-dependence cycle; topological
	// traversals skip them and the simulator seeds them with Init tokens.
	LCD bool
	// Group, when non-empty, marks this edge as one of several alternative
	// sources of a single logical stream at the destination (e.g. direct
	// bank-to-consumer response edges after crossbar elimination): the
	// consumer takes one element per firing from ANY edge of the group,
	// rather than one from each edge.
	Group string
	// Decimate, on a request edge into a VMU bank, is the bank count of the
	// sharded memory: the bank observes every request of the broadcast
	// stream but serves (and responds to) only its 1/Decimate share — the
	// bank-address filter of the banking crossbar (paper Fig 8b). Zero or
	// one means the bank serves every request.
	Decimate int
	// Slack is the pipeline-delay imbalance (in partition delay levels) the
	// edge spans beyond one: long-lived values crossing Slack levels stall
	// the pipeline unless retiming buffers absorb them (paper §III-B1a).
	// Set by compute partitioning; the retime optimization inserts buffers
	// and clears it.
	Slack int
	// Port names the VMU port this edge attaches to when Src or Dst is a
	// VMU. A memory serves each access stream independently: a read's data
	// depends only on its address stream and a write's ack only on its write
	// stream, so dependence analysis pairs in- and out-edges per port instead
	// of treating the VMU as a synchronous actor. Empty for non-VMU edges.
	Port string
	// Label describes the edge for dumps and error messages.
	Label string
}

// Graph is the top-level VUDFG.
type Graph struct {
	Prog  *ir.Program
	VUs   []*VU
	Edges []*Edge

	out map[VUID][]EdgeID
	in  map[VUID][]EdgeID
}

// NewGraph returns an empty VUDFG for prog.
func NewGraph(prog *ir.Program) *Graph {
	return &Graph{
		Prog: prog,
		out:  make(map[VUID][]EdgeID),
		in:   make(map[VUID][]EdgeID),
	}
}

// AddVU appends a unit and returns it. Lanes defaults to 1.
func (g *Graph) AddVU(kind VUKind, name string) *VU {
	u := &VU{
		ID:          VUID(len(g.VUs)),
		Kind:        kind,
		Name:        name,
		Block:       ir.NoCtrl,
		Mem:         -1,
		Acc:         -1,
		Bank:        -1,
		Lanes:       1,
		MultiBuffer: 1,
	}
	g.VUs = append(g.VUs, u)
	return u
}

// AddEdge appends a stream from src to dst and returns it.
func (g *Graph) AddEdge(src, dst VUID, kind EdgeKind) *Edge {
	e := &Edge{
		ID:       EdgeID(len(g.Edges)),
		Src:      src,
		Dst:      dst,
		Kind:     kind,
		Lanes:    1,
		Depth:    defaultStreamDepth,
		PushCtrl: ir.NoCtrl,
		PopCtrl:  ir.NoCtrl,
	}
	g.Edges = append(g.Edges, e)
	g.out[src] = append(g.out[src], e.ID)
	g.in[dst] = append(g.in[dst], e.ID)
	return e
}

// defaultStreamDepth is the default receiver-buffer depth in elements,
// matching a Plasticine PU input FIFO.
const defaultStreamDepth = 16

// VU returns the unit with the given id.
func (g *Graph) VU(id VUID) *VU { return g.VUs[id] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) *Edge { return g.Edges[id] }

// Out returns the ids of edges leaving u.
func (g *Graph) Out(u VUID) []EdgeID { return g.out[u] }

// In returns the ids of edges entering u.
func (g *Graph) In(u VUID) []EdgeID { return g.in[u] }

// RemoveEdge detaches edge id from the graph. The Edges slice keeps its slot
// (nil) so other EdgeIDs stay valid.
func (g *Graph) RemoveEdge(id EdgeID) {
	e := g.Edges[id]
	if e == nil {
		return
	}
	g.out[e.Src] = removeID(g.out[e.Src], id)
	g.in[e.Dst] = removeID(g.in[e.Dst], id)
	g.Edges[id] = nil
}

// RemoveVU detaches unit id and all its edges. The VUs slice keeps its slot
// (nil) so other VUIDs stay valid.
func (g *Graph) RemoveVU(id VUID) {
	for _, eid := range append([]EdgeID(nil), g.out[id]...) {
		g.RemoveEdge(eid)
	}
	for _, eid := range append([]EdgeID(nil), g.in[id]...) {
		g.RemoveEdge(eid)
	}
	g.VUs[id] = nil
}

func removeID(s []EdgeID, id EdgeID) []EdgeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// LiveVUs returns the non-removed units.
func (g *Graph) LiveVUs() []*VU {
	out := make([]*VU, 0, len(g.VUs))
	for _, u := range g.VUs {
		if u != nil {
			out = append(out, u)
		}
	}
	return out
}

// LiveEdges returns the non-removed edges.
func (g *Graph) LiveEdges() []*Edge {
	out := make([]*Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// CountKind returns how many live units have the given kind.
func (g *Graph) CountKind(k VUKind) int {
	n := 0
	for _, u := range g.VUs {
		if u != nil && u.Kind == k {
			n++
		}
	}
	return n
}

// Dump renders the graph as one line per unit with its outgoing edges.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, u := range g.VUs {
		if u == nil {
			continue
		}
		fmt.Fprintf(&sb, "%s %s%s ops=%d lanes=%d ctrs=%d", u.Kind, u.Name, u.Instance, u.Ops, u.Lanes, len(u.Counters))
		for _, eid := range g.out[u.ID] {
			e := g.Edges[eid]
			tag := "data"
			if e.Kind == EToken {
				tag = fmt.Sprintf("tok(init=%d)", e.Init)
			}
			fmt.Fprintf(&sb, " ->%s[%s]", g.VUs[e.Dst].Name, tag)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ReattachSrc moves edge id's source to newSrc, updating adjacency.
func (g *Graph) ReattachSrc(id EdgeID, newSrc VUID) {
	e := g.Edges[id]
	g.out[e.Src] = removeID(g.out[e.Src], id)
	e.Src = newSrc
	g.out[newSrc] = append(g.out[newSrc], id)
}

// ReattachDst moves edge id's destination to newDst, updating adjacency.
func (g *Graph) ReattachDst(id EdgeID, newDst VUID) {
	e := g.Edges[id]
	g.in[e.Dst] = removeID(g.in[e.Dst], id)
	e.Dst = newDst
	g.in[newDst] = append(g.in[newDst], id)
}
