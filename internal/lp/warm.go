// Warm-started re-solve: dual simplex from a known basis.
//
// Branch-and-bound (package mip) solves a long sequence of LPs that differ
// only in right-hand sides. The parent's optimal basis stays dual feasible
// for every child (objective and matrix are unchanged), so the child can be
// re-solved by installing that basis and running dual simplex until the
// right-hand side is non-negative again — typically a handful of pivots
// instead of a full two-phase solve. Phase 1 (artificial variables) never
// runs on this path.
package lp

import (
	"math"
	"sort"
)

// dualTol is the reduced-cost tolerance below which an installed basis is
// rejected as dual infeasible (numerical drift from the parent solve).
const dualTol = 1e-6

// warmMaxCells bounds the tableau area (rows × columns) the warm path will
// attempt; larger programs fall straight back to a cold solve.
const warmMaxCells = 400000

// SolveFrom solves the program starting from a basis captured by a previous
// Solve or SolveFrom on a problem with the same rows (right-hand sides may
// differ). Dual simplex restores primal feasibility and a primal cleanup
// finishes the solve. Whenever the basis cannot be used — wrong shape,
// numerically singular, dual infeasible, or an iteration limit — SolveFrom
// transparently falls back to a cold Solve, so it is always safe to call.
// Infeasibility and unboundedness detected on the warm path are exact and
// returned directly.
func (p *Problem) SolveFrom(basis Basis) (*Solution, error) {
	sol, pivots := p.warmSolve(basis)
	if sol != nil {
		sol.Pivots = pivots
		return sol, statusErr(sol.Status)
	}
	sol, err := p.Solve()
	sol.Pivots += pivots
	return sol, err
}

// warmSolve attempts the basis-seeded solve. A nil solution means "fall back
// to a cold solve"; a non-nil one is a definitive answer. Either way it
// reports the pivots the attempt performed.
func (p *Problem) warmSolve(basis Basis) (*Solution, int) {
	m := len(p.rows)
	if m == 0 {
		return nil, 0
	}
	nSlack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	n := p.n + nSlack
	if (m+1)*(n+1) > warmMaxCells {
		// Above this tableau size the warm path stops paying for itself on
		// the partitioning workloads: every structural basic column costs
		// an O(m) pivot search and an elimination, and the degenerate dual
		// walks grow with m, so a cold two-phase solve is as fast and a
		// failed warm attempt costs double. Measured with the sparse
		// kernels at 60 nodes a search: the ms programs' relaxations
		// (m≈500, 330 k cells) re-solve 4.0× faster warm than cold (0.89
		// against 3.58 ms a node) and rf's (m≈300) 2.4×, while the bs
		// programs (m≈1 860, 4.6 M cells) compile 1.4–1.7× slower with the
		// gate lifted (34.6 against 24.8 s at par 2, 18.3 against 10.8 s
		// at par 16) — the gate sits between.
		return nil, 0
	}
	if len(basis) == m-1 && p.rows[m-1].rel != EQ {
		// One trailing row was appended since the basis was captured (the
		// branch-and-bound pattern: a child adds a single bound row). Its
		// slack completes the basis: a zero-cost basic slack keeps the basis
		// dual feasible, and any primal infeasibility it introduces is
		// exactly what the dual pivots below repair.
		basis = append(append(Basis(nil), basis...), p.n+nSlack-1)
	}
	if len(basis) != m {
		return nil, 0
	}
	for _, c := range basis {
		if c < 0 || c >= n {
			return nil, 0
		}
	}
	t := newWarmTableau(p, n)
	defer t.release()
	if !t.installBasis(basis) {
		return nil, t.pivots
	}
	t.price(p.c)
	obj := t.a[m]
	for j := 0; j < n; j++ {
		if obj[j] < -dualTol {
			return nil, t.pivots // dual infeasible: basis was not optimal for these costs
		}
	}
	// Anti-cycling: partitioning LPs are massively degenerate — many
	// nonbasic columns carry exactly zero reduced cost, so the textbook dual
	// ratio test admits zero-progress pivots and the walk can wander for
	// thousands of iterations without ever repairing the (single) negative
	// right-hand side. Perturbing every nonbasic reduced cost by a tiny
	// deterministic column-dependent offset makes every ratio strictly
	// positive, so each dual pivot strictly increases the dual objective and
	// no basis can repeat: termination is finite and fast in practice. The
	// true objective is re-priced after the dual phase and a primal cleanup
	// absorbs the perturbation.
	basic := make([]bool, n)
	for _, c := range t.basis {
		basic[c] = true
	}
	for j := 0; j < n; j++ {
		if !basic[j] {
			obj[j] += perturb(j)
		}
	}
	switch t.iterateDual() {
	case Optimal:
	case Infeasible:
		return &Solution{Status: Infeasible}, t.pivots
	default:
		return nil, t.pivots // iteration limit
	}
	// Restore the true objective over the final basis; the perturbation may
	// have left this vertex slightly suboptimal for the real costs, so
	// finish with primal pivots (usually zero or a handful of iterations).
	t.price(p.c)
	switch t.iterate() {
	case Optimal:
	case Unbounded:
		return &Solution{Status: Unbounded}, t.pivots
	default:
		return nil, t.pivots
	}
	x := t.extract(p.n)
	objv := 0.0
	for i, v := range x {
		objv += p.c[i] * v
	}
	return &Solution{Status: Optimal, X: x, Obj: objv, Basis: t.extractBasis()}, t.pivots
}

// newWarmTableau loads p into a fresh tableau of n structural and slack
// columns and records, per slack column, the row that holds it (t.slack).
// Rows are loaded as written — no sign normalization: dual simplex handles
// negative right-hand sides natively, and flipping rows would change the
// slack signs the basis was captured against.
func newWarmTableau(p *Problem, n int) *tableau {
	m := len(p.rows)
	t := &tableau{
		m: m, n: n, nStruct: p.n, nArt: 0,
		artStart: n,
		tabMem:   grabMatrix(m+1, n+1),
		basis:    make([]int, m),
		maxIter:  20000 + 50*(m+n),
	}
	t.slack = t.slack[:0]
	for i, r := range p.rows {
		row := t.a[i]
		for k, idx := range r.idx {
			row[idx] += r.coef[k]
		}
		row[n] = r.rhs
		switch r.rel {
		case LE:
			row[p.n+len(t.slack)] = 1
			t.slack = append(t.slack, i)
		case GE:
			row[p.n+len(t.slack)] = -1
			t.slack = append(t.slack, i)
		}
	}
	return t
}

// price recomputes the objective row for costs c over the current basis:
// reset the row, load the costs, and eliminate the basic entries so every
// basic column prices to zero.
func (t *tableau) price(c []float64) {
	obj := t.a[t.m]
	for j := 0; j <= t.n; j++ {
		obj[j] = 0
	}
	for i, v := range c {
		obj[i] = v
	}
	for i := 0; i < t.m; i++ {
		f := obj[t.basis[i]]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j <= t.n; j++ {
			obj[j] -= f * ri[j]
		}
	}
}

// perturb is the deterministic anti-degeneracy cost offset for column j:
// a pseudo-random value in [1e-6, 2e-6), fixed per column so re-solves stay
// reproducible across runs and worker counts.
func perturb(j int) float64 {
	h := uint64(j+1) * 0x9e3779b97f4a7c15
	return 1e-6 * (1 + float64(h>>40)/float64(1<<24))
}

// installBasis canonicalizes the freshly loaded tableau for the given basis:
// each basic column is reduced to a unit column. Columns are taken in
// descending index order, so every slack column comes before any structural
// one, while the tableau is still as loaded. A slack column is then already
// a unit column — ±1 in its own row (t.slack), zero elsewhere — and the
// objective row is still zero, so a Gauss-Jordan pivot on it would change
// that one row only. It is installed instead of pivoted: claim the row (a
// row already claimed means the column is repeated), scale it by the entry's
// reciprocal when that is the -1 of a ≥ row (x*1.0 == x, so skipping the
// scale of a ≤ row is exact), and record the basis. Structural columns pay
// for a partial-pivot search over the unclaimed rows and a real pivot.
// Returns false when the basis is numerically singular (including repeated
// columns).
func (t *tableau) installBasis(basis Basis) bool {
	cols := append([]int(nil), basis...)
	sort.Sort(sort.Reverse(sort.IntSlice(cols)))
	assigned := make([]bool, t.m)
	for _, c := range cols {
		if c >= t.nStruct {
			r := t.slack[c-t.nStruct]
			if assigned[r] {
				return false
			}
			assigned[r] = true
			if ar := t.a[r]; ar[c] != 1 {
				inv := 1.0 / ar[c]
				for j := range ar {
					ar[j] *= inv
				}
			}
			t.basis[r] = c
			t.pivots++
			continue
		}
		// Partial pivoting over the rows not yet claimed by a basic column.
		best, bestAbs := -1, feasTol
		for i := 0; i < t.m; i++ {
			if assigned[i] {
				continue
			}
			if v := math.Abs(t.a[i][c]); v > bestAbs {
				best, bestAbs = i, v
			}
		}
		if best < 0 {
			return false
		}
		assigned[best] = true
		t.pivot(best, c)
	}
	return true
}

// iterateDual runs dual simplex pivots: the basis stays dual feasible while
// negative right-hand-side entries (primal infeasibilities) are driven out.
// The leaving row is the most negative rhs (lowest row index on ties); the
// entering column minimizes the reduced-cost ratio over columns with a
// negative pivot element (lowest column index on ties) — deterministic by
// construction, which the pinned node and pivot counts of package mip's
// golden files rely on.
func (t *tableau) iterateDual() Status {
	obj := t.a[t.m]
	// A warm re-solve is worthwhile only when it takes few pivots — the
	// parent basis differs from the child optimum by one tightened bound.
	// Partitioning LPs are massively degenerate, and even with perturbation
	// the walk can drift; every pivot costs O(m·n), so on large tableaus a
	// long walk erases the warm-start win. Past one pivot per row (plus
	// slack for small systems) a cold two-phase solve is cheaper: give up
	// and let SolveFrom fall back.
	cap := t.m + 100
	if cap > t.maxIter {
		cap = t.maxIter
	}
	for iter := 0; iter < cap; iter++ {
		r, worst := -1, -feasTol
		for i := 0; i < t.m; i++ {
			if v := t.a[i][t.n]; v < worst {
				r, worst = i, v
			}
		}
		if r < 0 {
			return Optimal // primal feasible again
		}
		row := t.a[r]
		best, bestRatio := -1, math.Inf(1)
		for j := 0; j < t.n; j++ {
			d := row[j]
			if d >= -eps {
				continue
			}
			cost := obj[j]
			if cost < 0 {
				cost = 0 // clamp drift; cleaned up by the primal pass
			}
			if ratio := cost / -d; ratio < bestRatio-eps {
				best, bestRatio = j, ratio
			}
		}
		if best < 0 {
			// No column can absorb the infeasibility: the row proves the
			// program infeasible (dual unbounded).
			return Infeasible
		}
		t.pivot(r, best)
	}
	return IterLimit
}
