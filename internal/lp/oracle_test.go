package lp

// Kernel oracles. pivotOracle and installBasisOracle are the bodies pivot
// and installBasis had before they learnt about sparsity — every touched row
// updated across its full width, every basic column a Gauss-Jordan pivot —
// kept verbatim as the reference the kernels are held to with == on every
// cell, basis entry and return value (only the sign of a zero may differ;
// no comparison in lp or mip observes it).
//
// Everything else a solve does — pricing, both ratio tests, the dual walk,
// phase changes — is an unchanged function of the tableau's values. So if a
// pivot maps equal tableaux to equal tableaux (TestPivotMatchesOracle) and a
// basis installation does (TestInstallBasisMatchesOracle), a whole solve
// makes the same pivot sequence and returns the same floats, by induction
// over its pivots. The golden files of packages mip and partition check the
// conclusion end to end.

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func pivotOracle(t *tableau, row, col int) {
	ar := t.a[row]
	inv := 1.0 / ar[col]
	for j := range ar {
		ar[j] *= inv
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
		ri = ri[:len(ar)] // single bounds check for the fused update below
		for j := range ri {
			ri[j] -= f * ar[j]
		}
	}
	t.basis[row] = col
	t.pivots++
}

func installBasisOracle(t *tableau, basis Basis) bool {
	cols := append([]int(nil), basis...)
	sort.Sort(sort.Reverse(sort.IntSlice(cols)))
	assigned := make([]bool, t.m)
	for _, c := range cols {
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
		pivotOracle(t, best, c)
	}
	return true
}

// clone copies what the kernels read and write.
func (t *tableau) clone() *tableau {
	c := *t
	c.basis = append([]int(nil), t.basis...)
	c.tabMem = &tabMem{a: make([][]float64, len(t.a)), nz: make([]int, 0, len(t.a[0])), slack: t.slack}
	for i, r := range t.a {
		c.a[i] = append([]float64(nil), r...)
	}
	return &c
}

// sameTableau requires equal cells, basis and pivot count.
func sameTableau(t *testing.T, label string, got, want *tableau) {
	t.Helper()
	for i := range want.a {
		for j := range want.a[i] {
			if got.a[i][j] != want.a[i][j] {
				t.Fatalf("%s: cell [%d][%d] = %v, oracle %v", label, i, j, got.a[i][j], want.a[i][j])
			}
		}
	}
	for i := range want.basis {
		if got.basis[i] != want.basis[i] {
			t.Fatalf("%s: basis[%d] = %d, oracle %d", label, i, got.basis[i], want.basis[i])
		}
	}
	if got.pivots != want.pivots {
		t.Fatalf("%s: %d pivots, oracle %d", label, got.pivots, want.pivots)
	}
}

// TestPivotMatchesOracle runs chains of pivots on seeded random tableaux:
// widths 3–600, rows from one non-zero to full, filling in along a chain,
// entries and pivot elements of both signs — eighths on even trials, so that
// eliminations cancel exactly and make new zeros, arbitrary floats on odd
// ones — and pivot columns that are zero outside the pivot row.
func TestPivotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sparseRows, denseRows, loneCols := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(40)
		width := 3 + rng.Intn(598) // columns, rhs included
		// Non-zeros a row: 1–4 on a third of the trials, else a share of the
		// width skewed low, up to all of it.
		perRow := 1 + rng.Intn(4)
		if trial%3 != 0 {
			perRow = 1 + int(rng.Float64()*rng.Float64()*float64(width))
		}
		entry := func() float64 {
			if trial%2 == 0 {
				return float64(1+rng.Intn(32)) / 8 * float64(1-2*rng.Intn(2))
			}
			return rng.NormFloat64()
		}
		tab := &tableau{m: m, n: width - 1, basis: make([]int, m), tabMem: &tabMem{a: make([][]float64, m+1), nz: make([]int, 0, width)}}
		for i := range tab.a {
			tab.a[i] = make([]float64, width)
			for k := 0; k < perRow; k++ {
				tab.a[i][rng.Intn(width)] = entry()
			}
		}
		oracle := tab.clone()
		for step := 0; step < 6; step++ {
			row, col := rng.Intn(m), rng.Intn(width-1)
			lone := step == 0 && trial%4 == 0
			for i := 0; lone && i <= m; i++ {
				if i != row {
					tab.a[i][col], oracle.a[i][col] = 0, 0
				}
			}
			if tab.a[row][col] == 0 {
				v := entry()
				tab.a[row][col], oracle.a[row][col] = v, v
			}
			nz := 0
			for _, v := range tab.a[row] {
				if v != 0 {
					nz++
				}
			}
			switch {
			case lone:
				loneCols++
			case nz < width/4:
				sparseRows++
			default:
				denseRows++
			}
			tab.pivot(row, col)
			pivotOracle(oracle, row, col)
			sameTableau(t, "pivot", tab, oracle)
		}
	}
	if sparseRows < 200 || denseRows < 200 || loneCols < 50 {
		t.Errorf("coverage: %d pivot rows under a quarter full, %d over, %d lone pivot columns", sparseRows, denseRows, loneCols)
	}
}

// instance is a partitioning MIP (paper Table III) as partition.Solver hands
// it to package mip, recorded from the first solver call of an `rf` and an
// `ms` compile: testdata/partition_{rf,ms}.json.
type instance struct {
	N       int       `json:"n"`
	Obj     []float64 `json:"obj"`
	Upper   []float64 `json:"upper"` // every variable has one
	Integer []int     `json:"integer"`
	Rows    []struct {
		Idx  []int     `json:"idx"`
		Coef []float64 `json:"coef"`
		Rel  Rel       `json:"rel"`
		RHS  float64   `json:"rhs"`
	} `json:"rows"`
	Incumbent float64 `json:"incumbent"` // objective of the traversal warm start
}

// bbNode is a branch-and-bound node in package mip's terms.
type bbNode struct {
	id      int
	bound   float64
	lo, hi  map[int]float64
	loOrder []int
	basis   Basis
}

// relaxation builds nd's LP in package mip's warm row layout: the original
// rows, x_i ≤ hi_i for every variable, then -x_i ≤ -lo_i in the order the
// branching path introduced lower bounds.
func (in *instance) relaxation(nd *bbNode) *Problem {
	q := NewProblem(in.N)
	for i, v := range in.Obj {
		q.SetObj(i, v)
	}
	for _, r := range in.Rows {
		q.AddConstraint(r.Idx, r.Coef, r.Rel, r.RHS)
	}
	for i, hi := range in.Upper {
		if v, ok := nd.hi[i]; ok && v < hi {
			hi = v
		}
		q.AddConstraint([]int{i}, []float64{1}, LE, hi)
	}
	for _, i := range nd.loOrder {
		q.AddConstraint([]int{i}, []float64{-1}, LE, -nd.lo[i])
	}
	return q
}

// checkInstall loads p the way warmSolve does and installs basis with the
// kernel and with the oracle: equal return values, and equal tableaux when
// the installation succeeds (a failed one is discarded by warmSolve).
func checkInstall(t *testing.T, label string, p *Problem, basis Basis) bool {
	t.Helper()
	nSlack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	if len(basis) == len(p.rows)-1 {
		basis = append(append(Basis(nil), basis...), p.n+nSlack-1) // the appended trailing row's slack
	}
	tab := newWarmTableau(p, p.n+nSlack)
	defer tab.release()
	oracle := tab.clone()
	got, want := tab.installBasis(basis), installBasisOracle(oracle, basis)
	if got != want {
		t.Fatalf("%s: installBasis = %v, oracle %v", label, got, want)
	}
	if got {
		sameTableau(t, label, tab, oracle)
	}
	return got
}

// TestInstallBasisMatchesOracle installs, with kernel and oracle, every basis
// a best-first branch and bound hands from a parent to a child within 60
// nodes on the two recorded partitioning instances. The search is package
// mip's — its row layout, (bound, id) order, most-fractional branching and
// incumbent pruning — rewritten here because mip imports this package.
// Down-branch children re-solve the parent's rows with a tightened bound;
// first up-branches on a variable append the trailing row warmSolve extends
// the basis across. Then the bases warmSolve must refuse.
func TestInstallBasisMatchesOracle(t *testing.T) {
	for _, name := range []string{"rf", "ms"} {
		data, err := os.ReadFile("testdata/partition_" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var in instance
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatal(err)
		}
		isInt := make([]bool, in.N)
		for _, i := range in.Integer {
			isInt[i] = true
		}
		best := in.Incumbent
		open := []*bbNode{{bound: math.Inf(-1), lo: map[int]float64{}, hi: map[int]float64{}}}
		installed, appended, nextID := 0, 0, 1
		var last *Problem
		var lastBasis Basis
		for nodes := 0; nodes < 60 && len(open) > 0; {
			k := 0
			for i, nd := range open {
				if nd.bound < open[k].bound || (nd.bound == open[k].bound && nd.id < open[k].id) {
					k = i
				}
			}
			nd := open[k]
			open = append(open[:k], open[k+1:]...)
			if nd.bound >= best-1e-9 {
				continue
			}
			nodes++
			q := in.relaxation(nd)
			var sol *Solution
			if nd.basis == nil {
				sol, err = q.Solve()
			} else {
				if len(nd.basis) == q.NumRows()-1 {
					appended++
				}
				if !checkInstall(t, name, q, nd.basis) {
					t.Fatalf("%s: node %d: a parent's optimal basis did not install", name, nd.id)
				}
				installed++
				last, lastBasis = q, nd.basis
				sol, err = q.SolveFrom(nd.basis)
			}
			if err != nil || sol.Obj >= best-1e-9 {
				continue
			}
			branch, frac := -1, 1e-6
			for i, v := range sol.X {
				if f := math.Abs(v - math.Round(v)); isInt[i] && f > frac {
					branch, frac = i, f
				}
			}
			if branch < 0 {
				best = sol.Obj
				continue
			}
			v := sol.X[branch]
			for _, up := range []bool{false, true} {
				c := &bbNode{id: nextID, bound: sol.Obj, lo: map[int]float64{}, hi: map[int]float64{}, loOrder: nd.loOrder, basis: sol.Basis}
				nextID++
				for i, b := range nd.lo {
					c.lo[i] = b
				}
				for i, b := range nd.hi {
					c.hi[i] = b
				}
				if !up {
					c.hi[branch] = math.Floor(v)
				} else {
					if _, had := nd.lo[branch]; !had {
						c.loOrder = append(append([]int(nil), nd.loOrder...), branch)
					}
					c.lo[branch] = math.Ceil(v)
				}
				open = append(open, c)
			}
		}
		if installed < 40 || appended < 5 {
			t.Errorf("%s: %d bases installed, %d across an appended row: the search did not exercise the warm path", name, installed, appended)
		}

		// Bases both sides must refuse, cut from the last real one: a slack
		// column twice, a structural column twice.
		slack, structural := -1, -1
		for _, c := range lastBasis {
			if c >= in.N && slack < 0 {
				slack = c
			}
			if c < in.N && structural < 0 {
				structural = c
			}
		}
		for _, dup := range []int{slack, structural} {
			bad := append(Basis(nil), lastBasis...)
			for i, c := range bad {
				if c != dup {
					bad[i] = dup
					break
				}
			}
			if dup < 0 || checkInstall(t, name+" repeated column", last, bad) {
				t.Errorf("%s: basis with column %d repeated was not refused", name, dup)
			}
		}
	}

	// Numerically singular without a repeated column: x0 and x1 have
	// parallel columns, so no second pivot survives the first elimination.
	p := NewProblem(2)
	p.AddConstraint([]int{0, 1}, []float64{1, 2}, LE, 4)
	p.AddConstraint([]int{0, 1}, []float64{2, 4}, LE, 9)
	if checkInstall(t, "singular", p, Basis{0, 1}) {
		t.Error("singular basis was not refused")
	}
	// And a ≥ row, whose slack enters at -1 and is scaled on installation.
	p.AddConstraint([]int{0}, []float64{1}, GE, 1)
	if !checkInstall(t, "surplus", p, Basis{0, 3, 4}) {
		t.Error("basis over a surplus column was refused")
	}
}
