// Package consistency implements Compiler-Managed Memory Consistency (CMMC),
// the control paradigm at the core of SARA (paper §III-A).
//
// Instead of ordering whole hyperblocks, CMMC enforces, per data structure,
// that the memory access order across concurrent request streams matches the
// order of a sequentially executed program. The analysis proceeds per memory:
//
//  1. Build a dependency graph between the memory's accessors: forward edges
//     for conflicts in program order, backward loop-carried dependence (LCD)
//     edges for conflicts across iterations of a shared enclosing loop
//     (paper §III-A3a).
//  2. Reduce the graph: transitive reduction on the forward edges, then
//     subsumption pruning of backward edges (paper §III-A3b).
//  3. Emit one synchronization directive (a token or credit stream) per
//     surviving edge; lowering wires these between the accesses' response and
//     request VCUs with push/pop driven by the done-signals of the immediate
//     children of the accesses' least common ancestor (paper §III-A1).
//
// Backward edges become credits, initialized to the destination's multibuffer
// depth. A credit of 1 reproduces strict sequential order; when the reader's
// address span per LCA-loop iteration is covered by the writer's, the credit
// can be relaxed to the buffer depth to pipeline the accessors.
package consistency

import (
	"fmt"
	"sort"
	"strings"

	"sara/internal/ir"
)

// DepKind classifies a dependence by the directions of its endpoints.
type DepKind int

const (
	// RAW orders a read after the write producing its data.
	RAW DepKind = iota
	// WAR keeps a write from clobbering data an earlier read still needs.
	WAR
	// WAW keeps two writes in order.
	WAW
	// RAR orders two reads; required for on-chip VMUs because a Plasticine
	// PMU serves one read request stream at a time (paper §III-A3a). DRAM
	// interfaces permit concurrent read streams, so RAR is dropped there.
	RAR
)

// String returns the usual dependence mnemonic.
func (k DepKind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	case RAR:
		return "RAR"
	default:
		return fmt.Sprintf("dep(%d)", int(k))
	}
}

func depKind(a, b ir.Dir) DepKind {
	switch {
	case a == ir.Write && b == ir.Read:
		return RAW
	case a == ir.Read && b == ir.Write:
		return WAR
	case a == ir.Write && b == ir.Write:
		return WAW
	default:
		return RAR
	}
}

// Dep is one dependence edge between two accessor locations of a memory.
// Forward edges order Dst after Src within an iteration; backward edges order
// Dst's next Loop-iteration after Src, with Init iterations of slack.
type Dep struct {
	Src, Dst ir.AccessID
	Kind     DepKind
	Backward bool
	// Loop is the innermost common enclosing loop an LCD belongs to
	// (NoCtrl for forward edges).
	Loop ir.CtrlID
	// Init is the initial credit of a backward edge (>= 1).
	Init int
	// IntraBlock marks dependences between accesses of the same hyperblock;
	// lowering resolves these by splitting the block (paper §III-A1).
	IntraBlock bool
}

func (d Dep) String() string {
	dir := "->"
	if d.Backward {
		dir = "~>"
	}
	return fmt.Sprintf("%d%s%d(%s,init=%d)", d.Src, dir, d.Dst, d.Kind, d.Init)
}

// MemPlan is the analysis result for one memory.
type MemPlan struct {
	Mem ir.MemID
	// AllForward and AllBackward are the constructed dependency graph before
	// reduction, for reporting and tests.
	AllForward, AllBackward []Dep
	// Forward and Backward are the reduced edges that become tokens/credits.
	Forward, Backward []Dep
	// MultiBuffer is the buffering depth CMMC selected for the memory.
	MultiBuffer int
}

// Plan is the whole-program CMMC analysis result.
type Plan struct {
	Prog *ir.Program
	Mems []MemPlan
}

// TokenCount returns the number of synchronization streams the plan requires.
func (p *Plan) TokenCount() int {
	n := 0
	for _, mp := range p.Mems {
		n += len(mp.Forward) + len(mp.Backward)
	}
	return n
}

// RawTokenCount returns the token count before graph reduction.
func (p *Plan) RawTokenCount() int {
	n := 0
	for _, mp := range p.Mems {
		n += len(mp.AllForward) + len(mp.AllBackward)
	}
	return n
}

// Options tunes the analysis, mainly for ablation benchmarks.
type Options struct {
	// DisableReduction keeps every constructed dependence edge, skipping
	// transitive reduction and backward subsumption (paper §III-A3b).
	DisableReduction bool
	// DisableCreditRelaxation pins every backward credit to 1, forcing
	// sequential execution across accessors (no multibuffering).
	DisableCreditRelaxation bool
}

// relaxedCredits is the depth of a relaxed backward credit: double
// buffering (paper §III-A3).
const relaxedCredits = 2

// Analyze runs CMMC dependence analysis over every memory of the program.
func Analyze(prog *ir.Program, opts Options) *Plan {
	plan := &Plan{Prog: prog}
	for _, m := range prog.Mems {
		plan.Mems = append(plan.Mems, analyzeMem(prog, m, opts))
	}
	return plan
}

func analyzeMem(prog *ir.Program, m *ir.Mem, opts Options) MemPlan {
	mp := MemPlan{Mem: m.ID, MultiBuffer: 1}
	accs := m.Accessors
	order := prog.ProgramOrder()

	// Construct the dependency graph over accessor locations (paper Fig 5).
	for i := 0; i < len(accs); i++ {
		for j := i + 1; j < len(accs); j++ {
			a, b := prog.Access(accs[i]), prog.Access(accs[j])
			kind := depKind(a.Dir, b.Dir)
			if !conflicts(m, kind) {
				continue
			}
			first, second := a, b
			if a.Block != b.Block && !prog.Before(order, a.Block, b.Block) {
				first, second = b, a
			}
			lca := prog.LCA(first.Block, second.Block)
			exclusive := clauseExclusive(prog, first.Block, second.Block, lca)
			intra := first.Block == second.Block

			if !exclusive {
				mp.AllForward = append(mp.AllForward, Dep{
					Src: first.ID, Dst: second.ID, Kind: kind, IntraBlock: intra,
				})
			}
			// LCD: the pair shares an enclosing loop when any loop encloses
			// the LCA (or the LCA itself is a loop).
			if loop := enclosingLoop(prog, lca); loop != ir.NoCtrl {
				init := 1
				if !opts.DisableCreditRelaxation && relaxable(prog, first, second, loop) {
					init = relaxedCredits
					if init > mp.MultiBuffer {
						mp.MultiBuffer = init
					}
				}
				mp.AllBackward = append(mp.AllBackward, Dep{
					Src: second.ID, Dst: first.ID, Kind: depKind(second.Dir, first.Dir),
					Backward: true, Loop: loop, Init: init, IntraBlock: intra,
				})
			}
		}
	}

	if opts.DisableReduction {
		mp.Forward = mp.AllForward
		mp.Backward = mp.AllBackward
		return mp
	}
	mp.Forward = reduceForward(mp.AllForward)
	mp.Backward = reduceBackward(mp.Forward, mp.AllBackward)
	return mp
}

// conflicts reports whether a dependence of the given kind needs ordering on
// memory m. RAR matters only for on-chip VMUs (single read stream per PMU).
func conflicts(m *ir.Mem, k DepKind) bool {
	if k != RAR {
		return true
	}
	return m.Kind == ir.MemSRAM || m.Kind == ir.MemReg
}

// clauseExclusive reports whether the two blocks sit under different clauses
// of a branch at or below their LCA: such accesses can never execute in the
// same iteration, so they need no forward ordering (paper §III-A3a, Fig 5b).
func clauseExclusive(prog *ir.Program, a, b ir.CtrlID, lca ir.CtrlID) bool {
	if a == b {
		return false
	}
	if prog.Ctrl(lca).Kind != ir.CtrlBranch {
		return false
	}
	ca := prog.ChildToward(lca, a)
	cb := prog.ChildToward(lca, b)
	cla, clb := prog.Ctrl(ca).Clause, prog.Ctrl(cb).Clause
	return cla != ir.ClauseNone && clb != ir.ClauseNone && cla != clb
}

// enclosingLoop returns the innermost loop controller at or above c, or
// NoCtrl when no loop encloses c.
func enclosingLoop(prog *ir.Program, c ir.CtrlID) ir.CtrlID {
	for id := c; id != ir.NoCtrl; id = prog.Ctrl(id).Parent {
		if prog.Ctrl(id).IsLoop() {
			return id
		}
	}
	return ir.NoCtrl
}

// relaxable reports whether the backward credit between the two accesses may
// exceed 1: both address patterns must be statically analyzable and the
// later access's span per iteration of loop must not exceed the earlier's
// (the A(R) ⊆ A(W) condition of paper §III-A1).
func relaxable(prog *ir.Program, first, second *ir.Access, loop ir.CtrlID) bool {
	if first.Pat.Kind == ir.PatRandom || second.Pat.Kind == ir.PatRandom {
		return false
	}
	s1 := first.Pat.Span(prog, first.Block, loop)
	s2 := second.Pat.Span(prog, second.Block, loop)
	return s1 >= 0 && s2 >= 0 && s2 <= s1
}

// reduceForward performs transitive reduction over the forward-dependence
// DAG: an edge is dropped when another forward path already connects its
// endpoints (paper §III-A3b). Forward dependences are transitive, so
// connectivity is what must be preserved. A single token orders a pair
// regardless of dependence kind, so parallel edges between the same pair are
// deduplicated first (keeping the first, strongest-reported kind).
func reduceForward(edges []Dep) []Dep {
	type pair struct{ s, d ir.AccessID }
	seen := map[pair]bool{}
	deduped := make([]Dep, 0, len(edges))
	for _, e := range edges {
		k := pair{e.Src, e.Dst}
		if seen[k] {
			continue
		}
		seen[k] = true
		deduped = append(deduped, e)
	}
	adj := map[ir.AccessID][]ir.AccessID{}
	for _, e := range deduped {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	var kept []Dep
	for _, e := range deduped {
		if pathExists(adj, e.Src, e.Dst) {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// pathExists reports whether dst is reachable from src by a path of length
// at least two (i.e. without taking the direct src->dst edge).
func pathExists(adj map[ir.AccessID][]ir.AccessID, src, dst ir.AccessID) bool {
	seen := map[ir.AccessID]bool{src: true}
	var stack []ir.AccessID
	for _, next := range adj[src] {
		if next == dst {
			continue // the direct edge itself
		}
		if !seen[next] {
			seen[next] = true
			stack = append(stack, next)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == dst {
			return true
		}
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// reduceBackward prunes a backward edge A~>B when an alternative path from A
// to B exists whose edges are forward except for exactly one backward edge
// carrying the same loop and the same initial credit (paper §III-A3b).
// Subsumption is checked against the currently retained edge set so that two
// mutually subsuming edges are not both dropped.
func reduceBackward(forward []Dep, backward []Dep) []Dep {
	// Deterministic processing order.
	sorted := append([]Dep(nil), backward...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	retained := append([]Dep(nil), sorted...)
	for i := 0; i < len(retained); i++ {
		e := retained[i]
		others := make([]Dep, 0, len(retained)-1)
		others = append(others, retained[:i]...)
		others = append(others, retained[i+1:]...)
		if backwardSubsumed(forward, others, e) {
			retained = append(retained[:i], retained[i+1:]...)
			i--
		}
	}
	return retained
}

// backwardSubsumed searches for a path e.Src → e.Dst using forward edges plus
// exactly one backward edge with e's loop and init.
func backwardSubsumed(forward, backward []Dep, e Dep) bool {
	// State: (node, usedBackward). BFS over the combined graph.
	type state struct {
		node ir.AccessID
		used bool
	}
	fAdj := map[ir.AccessID][]ir.AccessID{}
	for _, f := range forward {
		fAdj[f.Src] = append(fAdj[f.Src], f.Dst)
	}
	bAdj := map[ir.AccessID][]ir.AccessID{}
	for _, b := range backward {
		if b.Loop == e.Loop && b.Init == e.Init {
			bAdj[b.Src] = append(bAdj[b.Src], b.Dst)
		}
	}
	start := state{e.Src, false}
	seen := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.node == e.Dst && cur.used {
			return true
		}
		for _, next := range fAdj[cur.node] {
			s := state{next, cur.used}
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
		if !cur.used {
			for _, next := range bAdj[cur.node] {
				s := state{next, true}
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return false
}

// Describe renders the plan per memory for debugging and golden tests.
func (p *Plan) Describe() string {
	var sb strings.Builder
	for _, mp := range p.Mems {
		m := p.Prog.Mem(mp.Mem)
		if len(mp.AllForward)+len(mp.AllBackward) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "mem %s (mb=%d):\n", m.Name, mp.MultiBuffer)
		name := func(id ir.AccessID) string { return p.Prog.Access(id).Name }
		for _, e := range mp.Forward {
			fmt.Fprintf(&sb, "  fwd %s -> %s (%s)\n", name(e.Src), name(e.Dst), e.Kind)
		}
		for _, e := range mp.Backward {
			fmt.Fprintf(&sb, "  bwd %s ~> %s (%s, loop=%s, init=%d)\n",
				name(e.Src), name(e.Dst), e.Kind, p.Prog.Ctrl(e.Loop).Name, e.Init)
		}
	}
	return sb.String()
}
