// Package mip implements a 0-1 / integer branch-and-bound solver on top of
// the package lp simplex. It is the stand-in for the commercial MIP solver
// (Gurobi) the paper uses for solver-based compute partitioning and global
// merging (paper §III-B1d, §IV-B): it supports warm starts from the
// traversal-based heuristic, a relative optimality-gap stop (the paper uses
// 15%), and node/time limits.
//
// The solver minimizes. Branching picks the most fractional integer variable;
// node selection is best-first on the LP relaxation bound, which makes the
// reported bound a true global lower bound at every point.
package mip

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"

	"sara/internal/lp"
)

// Rel re-exports the constraint relations for callers.
type Rel = lp.Rel

// Constraint relations.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

// Problem is a mixed-integer program under construction. All variables are
// bounded below by zero; integer variables default to an upper bound of 1
// (binary) unless SetUpper raises it.
type Problem struct {
	n       int
	obj     []float64
	rowIdx  [][]int
	rowCoef [][]float64
	rowRel  []Rel
	rowRHS  []float64
	integer []bool
	upper   []float64
}

// NewProblem returns a MIP with n continuous non-negative variables.
func NewProblem(n int) *Problem {
	up := make([]float64, n)
	for i := range up {
		up[i] = math.Inf(1)
	}
	return &Problem{n: n, obj: make([]float64, n), integer: make([]bool, n), upper: up}
}

// SetObj sets the minimization objective coefficient of variable i.
func (p *Problem) SetObj(i int, v float64) { p.obj[i] = v }

// AddObj adds v to the objective coefficient of variable i.
func (p *Problem) AddObj(i int, v float64) { p.obj[i] += v }

// SetBinary marks variable i as 0-1.
func (p *Problem) SetBinary(i int) {
	p.integer[i] = true
	p.upper[i] = 1
}

// SetInteger marks variable i as integral (keeping its current bounds).
func (p *Problem) SetInteger(i int) { p.integer[i] = true }

// SetUpper bounds variable i above by v.
func (p *Problem) SetUpper(i int, v float64) { p.upper[i] = v }

// AddConstraint appends the sparse row Σ coef[k]·x[idx[k]] rel rhs.
func (p *Problem) AddConstraint(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("mip: index/coefficient length mismatch")
	}
	p.rowIdx = append(p.rowIdx, idx)
	p.rowCoef = append(p.rowCoef, coef)
	p.rowRel = append(p.rowRel, rel)
	p.rowRHS = append(p.rowRHS, rhs)
}

// Status reports how a solve ended.
type Status int

const (
	// Optimal: proven optimal (or within the requested gap).
	Optimal Status = iota
	// Feasible: a limit stopped the search with an incumbent in hand.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// Limit: a limit stopped the search with no incumbent.
	Limit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Options tunes the search.
type Options struct {
	// Gap is the relative optimality gap at which to stop (0 = prove
	// optimality). The paper's methodology uses 0.15.
	Gap float64
	// MaxNodes caps explored branch-and-bound nodes (0 = 1e6).
	MaxNodes int
	// TimeLimit caps wall-clock search time (0 = none).
	TimeLimit time.Duration
	// WarmStart seeds the incumbent with a known feasible point (the
	// traversal-based partitioning solution in the paper). Ignored when
	// infeasible for the problem.
	WarmStart []float64
	// coldLP disables warm-started relaxations: every node re-runs two-phase
	// simplex from an empty tableau. This is the pre-warm-start reference
	// that TestWarmVsColdObjective compares warm starts against.
	coldLP bool
}

// Solution is a solve result.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	// Bound is the proven global lower bound on the optimum.
	Bound float64
	// Gap is the final relative gap between Obj and Bound.
	Gap float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// WarmStarted counts explored nodes whose LP relaxation was seeded from
	// the parent's optimal basis (lp.SolveFrom) rather than solved cold.
	WarmStarted int
	// LPPivots totals lp.Solution.Pivots over the explored nodes'
	// relaxations: with Nodes, the search's deterministic work units.
	LPPivots int
}

// ErrInfeasible is returned when no integer-feasible point exists.
var ErrInfeasible = errors.New("mip: infeasible")

const intTol = 1e-6

type node struct {
	// id is assigned in creation order and is the deterministic tie-break
	// for equal bounds: lowest ID wins, so the pop order — and with it the
	// whole search — is identical run to run.
	id    int64
	bound float64
	lo    map[int]float64
	hi    map[int]float64
	// loOrder lists the variables of lo in the order their lower-bound rows
	// were introduced along the branching path (shared read-only with the
	// parent unless this node added one). Lower-bound rows are emitted in
	// this order so a child's LP is the parent's LP plus at most one
	// trailing row — the shape lp.SolveFrom can warm-start across.
	loOrder []int
	// basis is the parent relaxation's optimal basis (shared, read-only);
	// nil at the root and below unrecoverable parents.
	basis lp.Basis
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Solve runs best-first branch and bound on the calling goroutine. The node
// heap is ordered by (LP bound, node ID) — a total order — and every LP
// relaxation is a pure function of its node, so under a node budget the
// search, its answer and its pivot count are a function of the problem and
// the options alone.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1_000_000
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	best := math.Inf(1)
	var bestX []float64
	if opts.WarmStart != nil && p.feasible(opts.WarmStart) {
		best = p.objValue(opts.WarmStart)
		bestX = append([]float64(nil), opts.WarmStart...)
	}

	rx := newRelaxation(p, opts.coldLP)
	h := &nodeHeap{{id: 0, bound: math.Inf(-1), lo: map[int]float64{}, hi: map[int]float64{}}}
	heap.Init(h)
	nextID := int64(1)
	nodes, warmed, pivots := 0, 0, 0
	rootBound := math.Inf(-1)
	haveRoot := false
	limited := false

	for h.Len() > 0 {
		if nodes >= opts.MaxNodes || (!deadline.IsZero() && time.Now().After(deadline)) {
			limited = true
			break
		}
		nd := heap.Pop(h).(*node)
		// Global bound: best-first means the popped node's bound is the
		// global lower bound among open nodes.
		globalBound := nd.bound
		if !haveRoot {
			globalBound = math.Inf(-1)
		}
		if bestX != nil && gapOK(best, globalBound, opts.Gap) {
			return p.finish(Optimal, bestX, best, globalBound, nodes, warmed, pivots), nil
		}
		if nd.bound >= best-1e-9 {
			continue // cannot improve
		}
		nodes++
		if nd.basis != nil {
			warmed++
		}

		sol, err := rx.solveNode(nd)
		pivots += sol.Pivots
		if err != nil {
			continue // infeasible subproblem
		}
		if !haveRoot {
			rootBound = sol.Obj
			haveRoot = true
		}
		if sol.Obj >= best-1e-9 {
			continue
		}
		branchVar := p.mostFractional(sol.X)
		if branchVar < 0 {
			// Integer feasible.
			if sol.Obj < best {
				best = sol.Obj
				bestX = roundInts(sol.X, p.integer)
			}
			continue
		}
		v := sol.X[branchVar]
		childBasis := sol.Basis
		if !rx.warm {
			// Cold relaxations ignore the basis; don't hand it down (it would
			// also miscount WarmStarted).
			childBasis = nil
		}
		down := &node{id: nextID, bound: sol.Obj, lo: copyMap(nd.lo), hi: copyMap(nd.hi), loOrder: nd.loOrder, basis: childBasis}
		down.hi[branchVar] = math.Floor(v)
		up := &node{id: nextID + 1, bound: sol.Obj, lo: copyMap(nd.lo), hi: copyMap(nd.hi), loOrder: nd.loOrder, basis: childBasis}
		up.lo[branchVar] = math.Ceil(v)
		if _, had := nd.lo[branchVar]; !had {
			// First lower bound on this variable: its row is appended after
			// the parent's rows. Copy-on-append — the slice backing is shared
			// with the sibling and the parent.
			up.loOrder = append(append([]int(nil), nd.loOrder...), branchVar)
		}
		nextID += 2
		heap.Push(h, down)
		heap.Push(h, up)
	}

	bound := rootBound
	if h.Len() > 0 {
		bound = (*h)[0].bound
	} else if bestX != nil {
		bound = best
	}
	if bestX == nil {
		if h.Len() == 0 && nodes > 0 {
			return p.finish(Infeasible, nil, math.Inf(1), bound, nodes, warmed, pivots), ErrInfeasible
		}
		return p.finish(Limit, nil, math.Inf(1), bound, nodes, warmed, pivots), errors.New("mip: limit reached without incumbent")
	}
	// A limit-stopped search returns the incumbent as Feasible (best-effort)
	// unless the remaining open-node bound already proves it within the
	// requested gap; an exhausted heap is a full proof of optimality.
	status := Optimal
	if limited && !gapOK(best, bound, opts.Gap) {
		status = Feasible
	}
	return p.finish(status, bestX, best, bound, nodes, warmed, pivots), nil
}

func (p *Problem) finish(st Status, x []float64, obj, bound float64, nodes, warmed, pivots int) *Solution {
	g := 0.0
	if x != nil {
		g = relGap(obj, bound)
	}
	return &Solution{Status: st, X: x, Obj: obj, Bound: bound, Gap: g, Nodes: nodes, WarmStarted: warmed, LPPivots: pivots}
}

func gapOK(incumbent, bound, gap float64) bool {
	return relGap(incumbent, bound) <= gap+1e-12
}

func relGap(incumbent, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	d := incumbent - bound
	if d <= 0 {
		return 0
	}
	den := math.Max(math.Abs(incumbent), 1)
	return d / den
}

// relaxation builds LP relaxations with a stable row layout so a parent's
// optimal basis transfers to its children. The shape at a node is
//
//	[original rows | x_i ≤ hi_i for every finite upper | -x_i ≤ -lo_i in
//	the order the branching path introduced them (node.loOrder)]
//
// A child therefore differs from its parent by a tightened right-hand side
// (down branch, or a repeated up branch) or by one appended trailing row
// (first up branch on a variable) — never by inserted, dropped, or
// reordered rows. Both deltas preserve the parent basis: the matrix and
// objective are unchanged over the parent's columns, so the basis stays
// dual feasible, and lp.SolveFrom extends it across the appended row with
// that row's slack. Crucially, lower-bound rows exist only where branching
// created them — emitting one for every integer variable up front would
// flood the tableau with degenerate zero-rhs rows and stall the dual
// simplex in zero-progress pivots.
type relaxation struct {
	p      *Problem
	warm   bool    // basis handoff enabled (stable row layout)
	ubVars []int   // variables with a finite upper bound, ascending
	oneIdx [][]int // oneIdx[i] == []int{i}, shared read-only across nodes
}

var (
	coefPos = []float64{1}
	coefNeg = []float64{-1}
)

func newRelaxation(p *Problem, cold bool) *relaxation {
	rx := &relaxation{p: p, warm: !cold}
	for i := 0; i < p.n; i++ {
		if p.integer[i] && math.IsInf(p.upper[i], 1) {
			// An unbounded integer variable would grow its bound rows lazily,
			// changing the row layout mid-tree; fall back to cold solves.
			rx.warm = false
		}
	}
	if !rx.warm {
		return rx
	}
	rx.oneIdx = make([][]int, p.n)
	for i := range rx.oneIdx {
		rx.oneIdx[i] = []int{i}
	}
	for i := 0; i < p.n; i++ {
		if !math.IsInf(p.upper[i], 1) {
			rx.ubVars = append(rx.ubVars, i)
		}
	}
	return rx
}

// solveNode solves the LP relaxation at nd. It is a pure function of the
// node: all shared state is read-only.
func (rx *relaxation) solveNode(nd *node) (*lp.Solution, error) {
	p := rx.p
	q := lp.NewProblem(p.n)
	for i, v := range p.obj {
		if v != 0 {
			q.SetObj(i, v)
		}
	}
	q.Grow(len(p.rowIdx) + len(rx.ubVars) + len(nd.loOrder)) // the warm shape's row count
	for r := range p.rowIdx {
		q.AddConstraint(p.rowIdx[r], p.rowCoef[r], p.rowRel[r], p.rowRHS[r])
	}
	if !rx.warm {
		// Cold shape: bound rows appear only where they bind, exactly as the
		// pre-warm-start solver built them.
		for i := 0; i < p.n; i++ {
			hi := p.upper[i]
			if v, ok := nd.hi[i]; ok && v < hi {
				hi = v
			}
			if !math.IsInf(hi, 1) {
				q.AddConstraint([]int{i}, []float64{1}, lp.LE, hi)
			}
			if v, ok := nd.lo[i]; ok && v > 0 {
				q.AddConstraint([]int{i}, []float64{1}, lp.GE, v)
			}
		}
		return q.Solve()
	}
	for _, i := range rx.ubVars {
		hi := p.upper[i]
		if v, ok := nd.hi[i]; ok && v < hi {
			hi = v
		}
		q.AddConstraint(rx.oneIdx[i], coefPos, lp.LE, hi)
	}
	for _, i := range nd.loOrder {
		q.AddConstraint(rx.oneIdx[i], coefNeg, lp.LE, -nd.lo[i])
	}
	if nd.basis != nil {
		return q.SolveFrom(nd.basis)
	}
	return q.Solve()
}

// mostFractional returns the integer variable farthest from integrality, or
// -1 when the point is integer feasible.
func (p *Problem) mostFractional(x []float64) int {
	best, bestFrac := -1, intTol
	for i, isInt := range p.integer {
		if !isInt {
			continue
		}
		f := math.Abs(x[i] - math.Round(x[i]))
		if f > bestFrac {
			best, bestFrac = i, f
		}
	}
	return best
}

func roundInts(x []float64, integer []bool) []float64 {
	out := append([]float64(nil), x...)
	for i, isInt := range integer {
		if isInt {
			out[i] = math.Round(out[i])
		}
	}
	return out
}

func copyMap(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// feasible checks a candidate point against all rows, bounds, and
// integrality.
func (p *Problem) feasible(x []float64) bool {
	if len(x) != p.n {
		return false
	}
	for i, v := range x {
		if v < -intTol || v > p.upper[i]+intTol {
			return false
		}
		if p.integer[i] && math.Abs(v-math.Round(v)) > intTol {
			return false
		}
	}
	for r := range p.rowIdx {
		s := 0.0
		for k, idx := range p.rowIdx[r] {
			s += p.rowCoef[r][k] * x[idx]
		}
		switch p.rowRel[r] {
		case lp.LE:
			if s > p.rowRHS[r]+1e-6 {
				return false
			}
		case lp.GE:
			if s < p.rowRHS[r]-1e-6 {
				return false
			}
		case lp.EQ:
			if math.Abs(s-p.rowRHS[r]) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func (p *Problem) objValue(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += p.obj[i] * v
	}
	return s
}
