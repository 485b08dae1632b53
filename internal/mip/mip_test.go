package mip

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestKnapsack(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c<=2 (binary): best {a,b} = 16.
	p := NewProblem(3)
	vals := []float64{10, 6, 4}
	for i, v := range vals {
		p.SetObj(i, -v)
		p.SetBinary(i)
	}
	p.AddConstraint([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 2)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Optimal || math.Abs(s.Obj+16) > 1e-6 {
		t.Fatalf("obj = %v (%v), want -16 optimal", s.Obj, s.Status)
	}
	if s.X[0] != 1 || s.X[1] != 1 || s.X[2] != 0 {
		t.Errorf("x = %v, want [1 1 0]", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. x >= 2.3, x integer -> 3.
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.SetInteger(0)
	p.SetUpper(0, 10)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2.3)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.X[0] != 3 {
		t.Errorf("x = %v, want 3", s.X[0])
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// binary x with x >= 0.4 and x <= 0.6: LP feasible, IP infeasible.
	p := NewProblem(1)
	p.SetBinary(0)
	p.AddConstraint([]int{0}, []float64{1}, GE, 0.4)
	p.AddConstraint([]int{0}, []float64{1}, LE, 0.6)
	s, err := p.Solve(Options{})
	if err == nil || s.Status != Infeasible {
		t.Fatalf("want infeasible, got %v err=%v", s.Status, err)
	}
}

func TestWarmStartAccepted(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -3)
	p.SetObj(1, -2)
	p.SetBinary(0)
	p.SetBinary(1)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 1)
	// Warm start with the optimal point; node limit 1 still returns it.
	s, err := p.Solve(Options{WarmStart: []float64{1, 0}, MaxNodes: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(s.Obj+3) > 1e-6 {
		t.Errorf("warm-started obj = %v, want -3", s.Obj)
	}
}

func TestWarmStartRejectedWhenInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.SetBinary(0)
	p.AddConstraint([]int{0}, []float64{1}, GE, 1)
	s, err := p.Solve(Options{WarmStart: []float64{0}}) // violates x >= 1
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.X[0] != 1 {
		t.Errorf("x = %v, want 1 (warm start must be discarded)", s.X[0])
	}
}

func TestGapStopsEarly(t *testing.T) {
	// A problem where proving optimality needs branching, but a huge gap
	// accepts the first incumbent.
	rng := rand.New(rand.NewSource(3))
	n := 12
	p := NewProblem(n)
	idx := make([]int, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		p.SetObj(i, -(1 + rng.Float64()*9))
		p.SetBinary(i)
		idx[i] = i
		w[i] = 1 + rng.Float64()*4
	}
	p.AddConstraint(idx, w, LE, 10)
	exact, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	loose, err := p.Solve(Options{Gap: 0.5})
	if err != nil {
		t.Fatalf("loose: %v", err)
	}
	if loose.Nodes > exact.Nodes {
		t.Errorf("gap=0.5 explored %d nodes > exact %d", loose.Nodes, exact.Nodes)
	}
	if loose.Obj > exact.Obj*0.5+1e-6 {
		t.Errorf("gap solution %v not within 50%% of optimum %v", loose.Obj, exact.Obj)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 24
	p := NewProblem(n)
	idx := make([]int, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		p.SetObj(i, -(1 + rng.Float64()*9))
		p.SetBinary(i)
		idx[i] = i
		w[i] = 1 + rng.Float64()*4
	}
	p.AddConstraint(idx, w, LE, 20)
	start := make([]float64, n) // all-zero is feasible
	s, err := p.Solve(Options{TimeLimit: time.Millisecond, WarmStart: start, MaxNodes: 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.X == nil {
		t.Fatal("expected an incumbent from the warm start")
	}
}

// TestRandomKnapsacksAgainstBruteForce cross-checks B&B optima against
// exhaustive enumeration on random binary knapsacks.
func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7) // 4..10 items
		vals := make([]float64, n)
		ws := make([]float64, n)
		idx := make([]int, n)
		cap := 0.0
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			vals[i] = 1 + rng.Float64()*9
			ws[i] = 1 + rng.Float64()*5
			cap += ws[i]
			p.SetObj(i, -vals[i])
			p.SetBinary(i)
			idx[i] = i
		}
		cap *= 0.4
		p.AddConstraint(idx, ws, LE, cap)
		s, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			wsum, vsum := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					wsum += ws[i]
					vsum += vals[i]
				}
			}
			if wsum <= cap && vsum > best {
				best = vsum
			}
		}
		if math.Abs(-s.Obj-best) > 1e-5 {
			t.Errorf("trial %d: B&B %v != brute force %v", trial, -s.Obj, best)
		}
	}
}

func TestEqualityPartitioning(t *testing.T) {
	// Assign 3 items to 2 bins, each item exactly one bin, bin capacity 2:
	// minimize "bin 1 used" indicator approximated by cost on bin-1 vars.
	// Variables: x[i][b] = i*2+b.
	p := NewProblem(6)
	for i := 0; i < 3; i++ {
		for b := 0; b < 2; b++ {
			v := i*2 + b
			p.SetBinary(v)
			if b == 1 {
				p.SetObj(v, 1)
			}
		}
		p.AddConstraint([]int{i * 2, i*2 + 1}, []float64{1, 1}, EQ, 1)
	}
	p.AddConstraint([]int{0, 2, 4}, []float64{1, 1, 1}, LE, 2)
	p.AddConstraint([]int{1, 3, 5}, []float64{1, 1, 1}, LE, 2)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Two items fit in bin 0; one must pay for bin 1: obj = 1.
	if math.Abs(s.Obj-1) > 1e-6 {
		t.Errorf("obj = %v, want 1", s.Obj)
	}
}

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
