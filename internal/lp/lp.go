// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  A·x (≤ | = | ≥) b,   x ≥ 0
//
// It is the linear-algebra substrate under the mixed-integer branch-and-bound
// solver (package mip) that stands in for the commercial solver the paper
// uses for compute partitioning and global merging (paper §III-B1d, Gurobi).
// The implementation favours clarity and robustness on the small-to-medium
// instances partitioning produces (hundreds of variables): a tableau stored
// densely and pivoted sparsely, Bland's anti-cycling rule after a degeneracy
// streak, and explicit tolerances. A pivot updates a row only where the
// pivot row is non-zero; the updates it skips would have subtracted f·0, so
// the tableau is the one a full-width update leaves, float for float.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is ≤.
	LE Rel = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration cap was hit before convergence.
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrInfeasible is returned by Solve for infeasible problems.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned by Solve for unbounded problems.
var ErrUnbounded = errors.New("lp: unbounded")

// constraint is one sparse row.
type constraint struct {
	idx  []int
	coef []float64
	rel  Rel
	rhs  float64
}

// Problem is a linear program under construction. Variables are indexed
// 0..NumVars-1 and implicitly bounded below by zero.
type Problem struct {
	n    int
	c    []float64
	rows []constraint
}

// NewProblem returns a problem with n non-negative variables and a zero
// objective.
func NewProblem(n int) *Problem {
	return &Problem{n: n, c: make([]float64, n)}
}

// NumVars returns the variable count.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the constraint count.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetObj sets the objective coefficient of variable i (minimization).
func (p *Problem) SetObj(i int, v float64) {
	p.c[i] = v
}

// Grow reserves room for rows more constraints, so that many AddConstraint
// calls append without reallocating. The problem itself does not change.
func (p *Problem) Grow(rows int) {
	p.rows = slices.Grow(p.rows, rows)
}

// AddConstraint appends the sparse row Σ coef[k]·x[idx[k]] rel rhs.
// The index and coefficient slices are retained; callers must not reuse them.
func (p *Problem) AddConstraint(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("lp: index/coefficient length mismatch")
	}
	for _, i := range idx {
		if i < 0 || i >= p.n {
			panic(fmt.Sprintf("lp: variable index %d out of range [0,%d)", i, p.n))
		}
	}
	p.rows = append(p.rows, constraint{idx: idx, coef: coef, rel: rel, rhs: rhs})
}

// Basis records the basic column of each constraint row in an optimal
// tableau: values below NumVars are structural variables, larger values name
// the slack/surplus column of a constraint row (slack columns are numbered
// NumVars.. in row order over the non-equality rows). A basis is only
// meaningful for the problem that produced it or one with the same rows up
// to right-hand sides — exactly the shape branch-and-bound produces, where a
// child node tightens bounds but never changes the matrix (package mip).
type Basis []int

// Solution is a solve result.
type Solution struct {
	Status Status
	// X is the primal solution (length NumVars).
	X []float64
	// Obj is the objective value c·x.
	Obj float64
	// Basis is the optimal basis when one free of artificial variables was
	// reached (nil otherwise). It can seed SolveFrom on a problem with the
	// same rows and looser/tighter right-hand sides.
	Basis Basis
	// Pivots counts the pivots the solve performed — basis installation
	// (one per basic column), dual and primal, a failed warm attempt's
	// included: a deterministic unit of work, set for every Status.
	Pivots int
}

const (
	eps     = 1e-9
	feasTol = 1e-7
)

// Solve runs two-phase primal simplex. It returns ErrInfeasible or
// ErrUnbounded wrapped in the error for those outcomes; the Solution always
// reports Status.
func (p *Problem) Solve() (sol *Solution, err error) {
	t := newTableau(p)
	defer func() {
		sol.Pivots = t.pivots
		t.release()
	}()
	// Phase 1: minimize the sum of artificial variables.
	if t.nArt > 0 {
		if status := t.iterate(); status != Optimal {
			return &Solution{Status: status}, statusErr(status)
		}
		if t.objValue() > feasTol {
			return &Solution{Status: Infeasible}, ErrInfeasible
		}
		t.driveOutArtificials()
		t.toPhase2(p)
	}
	status := t.iterate()
	if status != Optimal {
		return &Solution{Status: status}, statusErr(status)
	}
	x := t.extract(p.n)
	obj := 0.0
	for i, v := range x {
		obj += p.c[i] * v
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Basis: t.extractBasis()}, nil
}

func statusErr(s Status) error {
	switch s {
	case Unbounded:
		return ErrUnbounded
	case Infeasible:
		return ErrInfeasible
	case IterLimit:
		return errors.New("lp: iteration limit reached")
	default:
		return nil
	}
}

// tableau is the simplex tableau, stored densely. Columns are [structural |
// slack/surplus | artificial | rhs]; row 0..m-1 are constraints and row m is
// the (phase-dependent) objective.
type tableau struct {
	m, n     int // constraints, total columns excluding rhs
	nStruct  int
	nArt     int
	*tabMem        // cells and scratch, recycled through tabPool
	basis    []int // basic variable of each row
	artStart int
	maxIter  int
	phase1   bool
	pivots   int // pivots performed so far (Solution.Pivots)
}

// tabMem is the memory of one tableau.
type tabMem struct {
	a     [][]float64 // (m+1) x (n+1) row views into buf
	buf   []float64   // flat backing array
	nz    []int       // pivot's scratch: non-zero columns of the scaled pivot row
	slack []int       // warm tableaux: the row holding each slack column
}

// tabPool recycles tableau memory. Branch-and-bound (package mip) solves
// thousands of same-shaped LPs back to back; reusing one set of allocations
// per solve keeps the allocator and GC out of the pivot loop.
var tabPool sync.Pool

// grabMatrix returns the memory of a rows×cols tableau drawn from tabPool:
// zeroed cells behind row views, and scratch of sufficient capacity.
func grabMatrix(rows, cols int) *tabMem {
	mem, _ := tabPool.Get().(*tabMem)
	if mem == nil {
		mem = new(tabMem)
	}
	if need := rows * cols; cap(mem.buf) < need {
		mem.buf = make([]float64, need)
	} else {
		mem.buf = mem.buf[:need]
		clear(mem.buf)
	}
	if cap(mem.a) < rows {
		mem.a = make([][]float64, rows)
	}
	mem.a = mem.a[:rows]
	for i := range mem.a {
		mem.a[i] = mem.buf[i*cols : (i+1)*cols : (i+1)*cols]
	}
	if cap(mem.nz) < cols {
		mem.nz = make([]int, 0, cols)
	}
	return mem
}

// release returns the memory to the pool. The tableau must not be used
// afterwards; any solution data has been copied out by extract.
func (t *tableau) release() {
	if t.tabMem != nil {
		tabPool.Put(t.tabMem)
		t.tabMem = nil
	}
}

func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	// Count slack/surplus and artificial columns using the normalized
	// relation (rows with negative rhs are flipped during loading).
	nSlack, nArt := 0, 0
	for _, r := range p.rows {
		rel := r.rel
		if r.rhs < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := p.n + nSlack + nArt
	t := &tableau{
		m: m, n: n, nStruct: p.n, nArt: nArt,
		artStart: p.n + nSlack,
		basis:    make([]int, m),
		maxIter:  20000 + 50*(m+n),
		phase1:   nArt > 0,
	}
	t.tabMem = grabMatrix(m+1, n+1)
	slack, art := p.n, t.artStart
	for i, r := range p.rows {
		rhs := r.rhs
		sign := 1.0
		if rhs < 0 {
			// Normalize to non-negative rhs by flipping the row.
			sign = -1
			rhs = -rhs
		}
		for k, idx := range r.idx {
			t.a[i][idx] += sign * r.coef[k]
		}
		t.a[i][n] = rhs
		rel := r.rel
		if sign < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			t.a[i][slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			t.a[i][slack] = -1
			slack++
			t.a[i][art] = 1
			t.basis[i] = art
			art++
		case EQ:
			t.a[i][art] = 1
			t.basis[i] = art
			art++
		}
	}
	if t.phase1 {
		// Phase-1 objective: minimize sum of artificials. Express reduced
		// costs by subtracting rows with artificial basics.
		obj := t.a[m]
		for j := t.artStart; j < t.artStart+t.nArt; j++ {
			obj[j] = 1
		}
		for i := 0; i < m; i++ {
			if t.basis[i] >= t.artStart {
				for j := 0; j <= n; j++ {
					obj[j] -= t.a[i][j]
				}
			}
		}
	} else {
		// All-slack basis is feasible: load the real objective directly (its
		// reduced costs over a slack basis are the raw coefficients).
		for i, v := range p.c {
			t.a[m][i] = v
		}
	}
	return t
}

func (t *tableau) objValue() float64 { return -t.a[t.m][t.n] }

// iterate runs primal simplex pivots until optimality, unboundedness, or the
// iteration cap. Dantzig pricing with a switch to Bland's rule after a run of
// degenerate pivots guards against cycling.
func (t *tableau) iterate() Status {
	degenerate := 0
	for iter := 0; iter < t.maxIter; iter++ {
		useBland := degenerate > 2*(t.m+1)
		col := t.priceColumn(useBland)
		if col < 0 {
			return Optimal
		}
		row := t.ratioTest(col, useBland)
		if row < 0 {
			return Unbounded
		}
		if t.a[row][t.n] < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(row, col)
	}
	return IterLimit
}

// priceColumn picks the entering column: most negative reduced cost
// (Dantzig), or smallest index with negative cost (Bland).
func (t *tableau) priceColumn(bland bool) int {
	obj := t.a[t.m]
	limit := t.n
	if !t.phase1 {
		limit = t.artStart // artificials never re-enter in phase 2
	}
	best, bestVal := -1, -eps
	for j := 0; j < limit; j++ {
		if obj[j] < bestVal {
			if bland {
				return j
			}
			best, bestVal = j, obj[j]
		}
	}
	return best
}

// ratioTest picks the leaving row by the minimum ratio rule, tie-breaking by
// smallest basis index under Bland's rule.
func (t *tableau) ratioTest(col int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		d := t.a[i][col]
		if d <= eps {
			continue
		}
		r := t.a[i][t.n] / d
		if r < bestRatio-eps || (bland && math.Abs(r-bestRatio) <= eps && best >= 0 && t.basis[i] < t.basis[best]) {
			best, bestRatio = i, r
		}
	}
	return best
}

// pivot makes col basic in row: the row is scaled to a unit pivot element
// and eliminated from every other row that has a non-zero in col. The rows
// of the partitioning programs stay sparse under elimination (a scaled pivot
// row is 3 % full on the rf and ms programs, 8 % on bs), so the elimination
// visits the pivot row's non-zeros only. That leaves the tableau a
// full-width update would: a skipped update has ar[j] == 0 and a finite f,
// so ri[j] - f*ar[j] == ri[j]; a performed one is the same expression on
// the same operands.
func (t *tableau) pivot(row, col int) {
	ar := t.a[row]
	inv := 1.0 / ar[col]
	nz := t.nz[:0]
	for j := range ar {
		ar[j] *= inv
		if ar[j] != 0 {
			nz = append(nz, j)
		}
	}
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		ri := t.a[i]
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * ar[j]
		}
	}
	t.basis[row] = col
	t.pivots++
}

// driveOutArtificials pivots any artificial variable that remained basic at
// zero level out of the basis (or leaves its row identically zero).
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
}

// toPhase2 replaces the phase-1 objective with the real one, expressed in
// reduced-cost form for the current basis, and blanks artificial columns.
func (t *tableau) toPhase2(p *Problem) {
	t.phase1 = false
	obj := t.a[t.m]
	for j := 0; j <= t.n; j++ {
		obj[j] = 0
	}
	for i, v := range p.c {
		obj[i] = v
	}
	// Zero artificial columns so they cannot re-enter.
	for j := t.artStart; j < t.artStart+t.nArt; j++ {
		for i := 0; i <= t.m; i++ {
			t.a[i][j] = 0
		}
	}
	// Express objective over the current basis.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		f := obj[b]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			obj[j] -= f * t.a[i][j]
		}
	}
}

// extractBasis captures the final basis in the layout Basis documents, or
// nil when an artificial variable is still basic (the basis then has no
// meaning for a re-solve without phase 1).
func (t *tableau) extractBasis() Basis {
	b := make(Basis, t.m)
	for i := 0; i < t.m; i++ {
		c := t.basis[i]
		if c >= t.artStart {
			return nil
		}
		b[i] = c
	}
	return b
}

// extract reads the structural solution out of the basis.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < n {
			x[b] = t.a[i][t.n]
			if x[b] < 0 && x[b] > -feasTol {
				x[b] = 0
			}
		}
	}
	return x
}
