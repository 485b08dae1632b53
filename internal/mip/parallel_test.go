package mip

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomMIP generates a mixed random instance: binary variables under a
// knapsack row, plus occasional GE / EQ side constraints so the search
// exercises infeasible subproblems and non-trivial branching.
func randomMIP(rng *rand.Rand) *Problem {
	n := 6 + rng.Intn(10) // 6..15 binaries
	p := NewProblem(n)
	idx := make([]int, n)
	w := make([]float64, n)
	cap := 0.0
	for i := 0; i < n; i++ {
		p.SetObj(i, -(1 + rng.Float64()*9))
		p.SetBinary(i)
		idx[i] = i
		w[i] = 1 + rng.Float64()*5
		cap += w[i]
	}
	p.AddConstraint(idx, w, LE, cap*(0.3+rng.Float64()*0.3))
	if rng.Intn(2) == 0 {
		// Pick at least k of a random subset.
		k := 1 + rng.Intn(2)
		m := 3 + rng.Intn(n-3)
		sub := rng.Perm(n)[:m]
		coef := make([]float64, m)
		for i := range coef {
			coef[i] = 1
		}
		p.AddConstraint(sub, coef, GE, float64(k))
	}
	if rng.Intn(3) == 0 {
		// Exactly-one over a small subset.
		m := 2 + rng.Intn(3)
		sub := rng.Perm(n)[:m]
		coef := make([]float64, m)
		for i := range coef {
			coef[i] = 1
		}
		p.AddConstraint(sub, coef, EQ, 1)
	}
	return p
}

// sameSolution requires bit-identical results: status, objective, bound,
// gap, node count, warm-start count, LP pivot count, and the full assignment
// vector.
func sameSolution(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Errorf("%s: status %v vs %v", label, a.Status, b.Status)
	}
	if math.Float64bits(a.Obj) != math.Float64bits(b.Obj) {
		t.Errorf("%s: obj %v vs %v", label, a.Obj, b.Obj)
	}
	if math.Float64bits(a.Bound) != math.Float64bits(b.Bound) {
		t.Errorf("%s: bound %v vs %v", label, a.Bound, b.Bound)
	}
	if math.Float64bits(a.Gap) != math.Float64bits(b.Gap) {
		t.Errorf("%s: gap %v vs %v", label, a.Gap, b.Gap)
	}
	if a.Nodes != b.Nodes {
		t.Errorf("%s: nodes %d vs %d", label, a.Nodes, b.Nodes)
	}
	if a.WarmStarted != b.WarmStarted {
		t.Errorf("%s: warm-started %d vs %d", label, a.WarmStarted, b.WarmStarted)
	}
	if a.LPPivots != b.LPPivots {
		t.Errorf("%s: LP pivots %d vs %d", label, a.LPPivots, b.LPPivots)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: |X| %d vs %d", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Errorf("%s: X[%d] %v vs %v", label, i, a.X[i], b.X[i])
		}
	}
}

// TestSerialParallelEquivalenceRandom is the solver-level equivalence gate:
// on seeded random instances the parallel speculative search must reproduce
// the serial oracle bit for bit — same tree, same incumbent, same bound.
func TestSerialParallelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		p := randomMIP(rng)
		serial, errS := p.Solve(Options{Workers: 1})
		par, errP := p.Solve(Options{Workers: 8})
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: serial err %v, parallel err %v", trial, errS, errP)
		}
		if errS != nil {
			if serial.Status != par.Status {
				t.Errorf("trial %d: error status %v vs %v", trial, serial.Status, par.Status)
			}
			continue
		}
		sameSolution(t, "trial", serial, par)
	}
}

// TestParallelDeterministicAcrossGOMAXPROCS pins determinism against the
// scheduler: the same instance solved with 8 workers under GOMAXPROCS=1 and
// under all cores must agree exactly with each other and with the serial
// oracle.
func TestParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		p := randomMIP(rng)
		serial, err := p.Solve(Options{Workers: 1})
		if err != nil {
			continue
		}
		prev := runtime.GOMAXPROCS(1)
		one, err1 := p.Solve(Options{Workers: 8})
		runtime.GOMAXPROCS(prev)
		many, errN := p.Solve(Options{Workers: 8})
		if err1 != nil || errN != nil {
			t.Fatalf("trial %d: gomaxprocs=1 err %v, many err %v", trial, err1, errN)
		}
		sameSolution(t, "gomaxprocs=1 vs serial", serial, one)
		sameSolution(t, "gomaxprocs=n vs serial", serial, many)
	}
}

// TestWarmVsColdObjective checks the warm-started LP path lands on the same
// optimum as the cold baseline (vertices may differ; objectives may not) and
// that warm starts actually engage on branching instances.
func TestWarmVsColdObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	engaged := false
	for trial := 0; trial < 25; trial++ {
		p := randomMIP(rng)
		warm, errW := p.Solve(Options{})
		cold, errC := p.Solve(Options{ColdLP: true})
		if (errW == nil) != (errC == nil) {
			t.Fatalf("trial %d: warm err %v, cold err %v", trial, errW, errC)
		}
		if errW != nil {
			continue
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-6 {
			t.Errorf("trial %d: warm obj %v != cold obj %v", trial, warm.Obj, cold.Obj)
		}
		if warm.WarmStarted > 0 {
			engaged = true
		}
		if cold.WarmStarted != 0 {
			t.Errorf("trial %d: cold path reports %d warm-started nodes", trial, cold.WarmStarted)
		}
	}
	if !engaged {
		t.Error("no instance engaged the warm-start path")
	}
}

// TestNodeCapReturnsFeasible checks the node-limit contract: a search
// truncated with an unproven incumbent reports Feasible, not Optimal, while
// the untruncated run proves Optimal on the same instance.
func TestNodeCapReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 18
	p := NewProblem(n)
	idx := make([]int, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		p.SetObj(i, -(1 + rng.Float64()*9))
		p.SetBinary(i)
		idx[i] = i
		w[i] = 1 + rng.Float64()*4
	}
	p.AddConstraint(idx, w, LE, 18)

	full, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	if full.Status != Optimal {
		t.Fatalf("full solve status = %v, want optimal", full.Status)
	}
	if full.Nodes <= 3 {
		t.Skipf("instance too easy (%d nodes) to truncate meaningfully", full.Nodes)
	}

	start := make([]float64, n) // all-zero incumbent, far from optimal
	capped, err := p.Solve(Options{MaxNodes: 2, WarmStart: start})
	if err != nil {
		t.Fatalf("capped solve: %v", err)
	}
	if capped.Status != Feasible {
		t.Errorf("capped status = %v, want feasible (incumbent unproven)", capped.Status)
	}
	if capped.X == nil {
		t.Error("capped solve dropped the incumbent")
	}
	if capped.Nodes > 2 {
		t.Errorf("capped solve explored %d nodes, cap was 2", capped.Nodes)
	}

	// A cap that is never hit must not demote the status.
	roomy, err := p.Solve(Options{MaxNodes: full.Nodes + 10})
	if err != nil {
		t.Fatalf("roomy solve: %v", err)
	}
	if roomy.Status != Optimal {
		t.Errorf("roomy status = %v, want optimal", roomy.Status)
	}
}
