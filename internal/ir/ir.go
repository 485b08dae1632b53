// Package ir defines SARA's input intermediate representation: a control
// hierarchy of nested loops, branches, and hyperblocks, together with the
// on-chip and off-chip memories the program accesses.
//
// The IR mirrors what the Spatial frontend hands to SARA (paper §III): a
// single-threaded imperative program whose control structure is an arbitrarily
// nested tree of controllers. Leaves of the tree are hyperblocks — basic
// blocks with internally convergent, non-looping control flow — and interior
// nodes are loops (static, dynamic-bound, or do-while) and branches.
//
// The IR is purely structural: it captures dependence and iteration shape, not
// value semantics. SARA's output quality is measured in cycles and resources,
// so hyperblocks carry operation dataflow graphs (see ops.go) whose node
// counts and edges drive partitioning and timing, while memory accesses carry
// affine address patterns (see mem.go) that drive banking and consistency
// analysis.
package ir

import (
	"fmt"
	"strings"
)

// CtrlID identifies a controller in a Program. IDs are dense, assigned in
// construction order, and usable as slice indices.
type CtrlID int

// NoCtrl is the CtrlID zero-substitute for "no controller".
const NoCtrl CtrlID = -1

// CtrlKind enumerates the controller node kinds of the control hierarchy.
type CtrlKind int

const (
	// CtrlRoot is the unique root controller of a program. Its body runs
	// exactly once per accelerator invocation.
	CtrlRoot CtrlKind = iota
	// CtrlLoop is a counted for-loop with compile-time-known bounds.
	CtrlLoop
	// CtrlLoopDyn is a for-loop whose min/step/max are data-dependent. The
	// bounds are produced by a separate hyperblock (BoundsBlock) and streamed
	// to the loop's body as data dependencies (paper §III-A2a).
	CtrlLoopDyn
	// CtrlWhile is a do-while loop: the continuation condition is computed by
	// the loop body itself, giving the loop a long initiation interval
	// (paper §III-A2c).
	CtrlWhile
	// CtrlBranch is an outer branch enclosing loops or hyperblocks. The
	// condition is evaluated by a dedicated hyperblock (CondBlock) and
	// broadcast to the clause controllers (paper §III-A2b).
	CtrlBranch
	// CtrlBlock is a hyperblock: a leaf containing a small operation DFG and
	// the program's memory accesses. Inner branches inside a block are
	// handled by predication and do not appear in the control tree.
	CtrlBlock
)

// String returns the lower-case name of the controller kind.
func (k CtrlKind) String() string {
	switch k {
	case CtrlRoot:
		return "root"
	case CtrlLoop:
		return "loop"
	case CtrlLoopDyn:
		return "loopdyn"
	case CtrlWhile:
		return "while"
	case CtrlBranch:
		return "branch"
	case CtrlBlock:
		return "block"
	default:
		return fmt.Sprintf("ctrlkind(%d)", int(k))
	}
}

// BranchClause distinguishes the two clauses of a CtrlBranch.
type BranchClause int

const (
	// ClauseNone marks controllers that are not direct clause children of a
	// branch.
	ClauseNone BranchClause = iota
	// ClauseThen marks controllers executed when the branch condition holds.
	ClauseThen
	// ClauseElse marks controllers executed when it does not.
	ClauseElse
)

// Ctrl is one node of the control hierarchy.
type Ctrl struct {
	ID     CtrlID
	Kind   CtrlKind
	Name   string
	Parent CtrlID
	// Children lists child controllers in program order. For a CtrlBranch the
	// then-clause children precede the else-clause children; Clause
	// disambiguates.
	Children []CtrlID

	// Loop shape (CtrlLoop, CtrlLoopDyn, CtrlWhile). For CtrlLoop the values
	// are exact; for CtrlLoopDyn and CtrlWhile, Trip is the expected trip
	// count used for performance estimation, and Min/Step/Max are zero.
	Min, Step, Max int
	// Trip is the (expected) number of iterations of this controller per
	// execution of its parent scope. 1 for root, blocks, and branches.
	Trip int
	// Par is the user-requested parallelization factor of this loop
	// (paper §II-A b). Par on an innermost loop vectorizes along SIMD lanes;
	// Par on an outer loop spatially unrolls the subtree. Always ≥ 1.
	Par int

	// Clause marks which branch clause this controller belongs to when its
	// parent is a CtrlBranch.
	Clause BranchClause
	// CondBlock, for a CtrlBranch, is the hyperblock that evaluates the
	// branch condition. It is a regular child block scheduled before the
	// clauses.
	CondBlock CtrlID
	// BoundsBlock, for a CtrlLoopDyn, is the hyperblock computing the loop
	// bounds. For a CtrlWhile it is the block producing the continuation
	// condition (commonly a block inside the loop body).
	BoundsBlock CtrlID

	// Ops is the operation dataflow graph of a CtrlBlock (empty otherwise).
	Ops []*Op
	// Accesses lists the memory accesses issued by a CtrlBlock, in program
	// order within the block.
	Accesses []AccessID
}

// IsLoop reports whether the controller iterates (loop, dynamic loop, or
// do-while).
func (c *Ctrl) IsLoop() bool {
	return c.Kind == CtrlLoop || c.Kind == CtrlLoopDyn || c.Kind == CtrlWhile
}

// Program is a complete SARA input: a control hierarchy plus its memories and
// accesses. Construct programs with the public spatial package rather than by
// hand; Program's invariants are checked by Validate.
type Program struct {
	Name     string
	Ctrls    []*Ctrl
	Mems     []*Mem
	Accs     []*Access
	TypeBits int // datapath element width in bits (default 32)
}

// NewProgram returns an empty program containing only the root controller.
func NewProgram(name string) *Program {
	p := &Program{Name: name, TypeBits: 32}
	root := &Ctrl{ID: 0, Kind: CtrlRoot, Name: "root", Parent: NoCtrl, Trip: 1, Par: 1}
	p.Ctrls = append(p.Ctrls, root)
	return p
}

// Root returns the root controller.
func (p *Program) Root() *Ctrl { return p.Ctrls[0] }

// Ctrl returns the controller with the given id.
func (p *Program) Ctrl(id CtrlID) *Ctrl { return p.Ctrls[id] }

// Mem returns the memory with the given id.
func (p *Program) Mem(id MemID) *Mem { return p.Mems[id] }

// Access returns the access with the given id.
func (p *Program) Access(id AccessID) *Access { return p.Accs[id] }

// AddCtrl appends a controller under parent and returns it. Trip and Par
// default to 1 when left zero.
func (p *Program) AddCtrl(kind CtrlKind, name string, parent CtrlID) *Ctrl {
	c := &Ctrl{
		ID:          CtrlID(len(p.Ctrls)),
		Kind:        kind,
		Name:        name,
		Parent:      parent,
		Trip:        1,
		Par:         1,
		CondBlock:   NoCtrl,
		BoundsBlock: NoCtrl,
	}
	p.Ctrls = append(p.Ctrls, c)
	if parent != NoCtrl {
		p.Ctrls[parent].Children = append(p.Ctrls[parent].Children, c.ID)
	}
	return c
}

// Blocks returns the hyperblocks of the program in program (pre-)order.
func (p *Program) Blocks() []*Ctrl {
	var out []*Ctrl
	p.Walk(func(c *Ctrl) {
		if c.Kind == CtrlBlock {
			out = append(out, c)
		}
	})
	return out
}

// Walk visits every controller in program pre-order, parents before children.
func (p *Program) Walk(f func(*Ctrl)) {
	var rec func(CtrlID)
	rec = func(id CtrlID) {
		c := p.Ctrls[id]
		f(c)
		for _, ch := range c.Children {
			rec(ch)
		}
	}
	rec(0)
}

// Depth returns the number of ancestors above c (root has depth 0).
func (p *Program) Depth(c CtrlID) int {
	d := 0
	for id := p.Ctrls[c].Parent; id != NoCtrl; id = p.Ctrls[id].Parent {
		d++
	}
	return d
}

// LCA returns the least common ancestor of two controllers. CMMC uses the LCA
// to pick the loop level whose done-signals drive token push/pop
// (paper §III-A1).
func (p *Program) LCA(a, b CtrlID) CtrlID {
	da, db := p.Depth(a), p.Depth(b)
	for da > db {
		a = p.Ctrls[a].Parent
		da--
	}
	for db > da {
		b = p.Ctrls[b].Parent
		db--
	}
	for a != b {
		a = p.Ctrls[a].Parent
		b = p.Ctrls[b].Parent
	}
	return a
}

// ChildToward returns the immediate child of ancestor anc on the path down to
// descendant c. If c == anc, it returns c itself. The returned controller's
// done-signal is what drives CMMC token push/pop at the LCA level.
func (p *Program) ChildToward(anc, c CtrlID) CtrlID {
	if anc == c {
		return c
	}
	cur := c
	for p.Ctrls[cur].Parent != anc {
		cur = p.Ctrls[cur].Parent
		if cur == NoCtrl {
			panic(fmt.Sprintf("ir: %d is not a descendant of %d", c, anc))
		}
	}
	return cur
}

// IsAncestor reports whether anc is an ancestor of c (or equal to it).
func (p *Program) IsAncestor(anc, c CtrlID) bool {
	for id := c; id != NoCtrl; id = p.Ctrls[id].Parent {
		if id == anc {
			return true
		}
	}
	return false
}

// IterationsUnder returns the product of trip counts of all loop controllers
// strictly between anc (exclusive) and c (inclusive): how many times c
// executes per iteration of anc. Branches contribute the fraction of parent
// iterations their clause is expected to take (modelled as 1; the simulator
// handles dynamic enabling).
func (p *Program) IterationsUnder(anc, c CtrlID) int64 {
	n := int64(1)
	for id := c; id != anc; id = p.Ctrls[id].Parent {
		cc := p.Ctrls[id]
		if cc.IsLoop() {
			n *= int64(cc.Trip)
		}
		if cc.Parent == NoCtrl {
			panic(fmt.Sprintf("ir: %d is not a descendant of %d", c, anc))
		}
	}
	return n
}

// TotalIterations returns how many times controller c executes per program
// run: the product of trip counts of all enclosing loops including c itself.
func (p *Program) TotalIterations(c CtrlID) int64 {
	n := int64(1)
	for id := c; id != NoCtrl; id = p.Ctrls[id].Parent {
		cc := p.Ctrls[id]
		if cc.IsLoop() {
			n *= int64(cc.Trip)
		}
	}
	return n
}

// ProgramOrder returns a dense pre-order index for every controller, defining
// the sequential program order that CMMC must preserve per memory.
func (p *Program) ProgramOrder() map[CtrlID]int {
	order := make(map[CtrlID]int, len(p.Ctrls))
	i := 0
	p.Walk(func(c *Ctrl) {
		order[c.ID] = i
		i++
	})
	return order
}

// Before reports whether controller a precedes controller b in program order.
// Neither may be an ancestor of the other for the answer to be meaningful in
// dependence analysis; callers check ancestry separately.
func (p *Program) Before(order map[CtrlID]int, a, b CtrlID) bool {
	return order[a] < order[b]
}

// Dump renders the control hierarchy as an indented tree, for debugging and
// golden tests.
func (p *Program) Dump() string {
	var sb strings.Builder
	var rec func(id CtrlID, depth int)
	rec = func(id CtrlID, depth int) {
		c := p.Ctrls[id]
		sb.WriteString(strings.Repeat("  ", depth))
		switch {
		case c.IsLoop():
			fmt.Fprintf(&sb, "%s %s trip=%d par=%d\n", c.Kind, c.Name, c.Trip, c.Par)
		case c.Kind == CtrlBlock:
			fmt.Fprintf(&sb, "block %s ops=%d accs=%d\n", c.Name, len(c.Ops), len(c.Accesses))
		default:
			fmt.Fprintf(&sb, "%s %s\n", c.Kind, c.Name)
		}
		for _, ch := range c.Children {
			rec(ch, depth+1)
		}
	}
	rec(0, 0)
	return sb.String()
}
