package partition

import (
	"math/rand"
	"testing"
)

// chain returns a linear dependence chain of n unit-cost ops.
func chain(n, maxOps int) *Instance {
	in := &Instance{N: n, Ops: make([]int, n), MaxOps: maxOps, MaxIn: 4, MaxOut: 4}
	for i := range in.Ops {
		in.Ops[i] = 1
	}
	for i := 0; i+1 < n; i++ {
		in.Edges = append(in.Edges, [2]int{i, i + 1})
	}
	return in
}

func TestTraversalChain(t *testing.T) {
	in := chain(12, 4)
	for _, o := range AllOrders {
		r, err := Traversal(in, o)
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if r.NumParts != 3 {
			t.Errorf("%s: parts = %d, want 3 (12 ops / 4 per PU)", o, r.NumParts)
		}
		if r.RetimeUnits != 0 {
			t.Errorf("%s: chain needs no retiming, got %d", o, r.RetimeUnits)
		}
	}
}

func TestTraversalRespectsArity(t *testing.T) {
	// Four parallel 2-node chains all feeding a final reduce pair. Generous
	// MaxOps but MaxIn=2 forces arity-driven partition splits; evaluate()
	// inside Traversal re-verifies every constraint.
	in := &Instance{N: 10, Ops: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		MaxOps: 4, MaxIn: 2, MaxOut: 2}
	for c := 0; c < 4; c++ {
		in.Edges = append(in.Edges, [2]int{2 * c, 2*c + 1})
	}
	// Reduce tree: chains 0,1 -> node 8; chains 2,3 -> node 9.
	in.Edges = append(in.Edges, [2]int{1, 8}, [2]int{3, 8}, [2]int{5, 9}, [2]int{7, 9})
	for _, o := range AllOrders {
		r, err := Traversal(in, o)
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if r.NumParts < 3 {
			t.Errorf("%s: %d partitions cannot hold 10 ops with MaxOps=4", o, r.NumParts)
		}
	}
}

func TestValidateRejectsExcessFanIn(t *testing.T) {
	in := &Instance{N: 5, Ops: []int{1, 1, 1, 1, 1}, MaxOps: 6, MaxIn: 3, MaxOut: 4,
		Edges: [][2]int{{0, 4}, {1, 4}, {2, 4}, {3, 4}}}
	if err := in.Validate(); err == nil {
		t.Fatal("expected error: node with 4 producers > MaxIn 3")
	}
}

func TestEvaluateDetectsCycle(t *testing.T) {
	in := chain(4, 4)
	// Force nodes 0,2 into partition 0 and 1,3 into partition 1: edges
	// 0->1 (p0->p1), 1->2 (p1->p0): quotient cycle.
	if _, err := in.evaluate([]int{0, 1, 0, 1}, "manual"); err == nil {
		t.Fatal("expected quotient-cycle error")
	}
}

func TestRetimeUnitsCounted(t *testing.T) {
	// Diamond with a long arm: a->b->c->d and a->d. With one node per
	// partition, edge a->d spans delay 3, so retime = 3-1 = 2.
	in := &Instance{N: 4, Ops: []int{1, 1, 1, 1}, MaxOps: 1, MaxIn: 4, MaxOut: 4,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}}
	r, err := in.evaluate([]int{0, 1, 2, 3}, "manual")
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if r.RetimeUnits != 2 {
		t.Errorf("retime units = %d, want 2", r.RetimeUnits)
	}
}

func TestValidateRejectsOversizedNode(t *testing.T) {
	in := &Instance{N: 1, Ops: []int{10}, MaxOps: 6, MaxIn: 4, MaxOut: 4}
	if err := in.Validate(); err == nil {
		t.Fatal("expected error: node larger than MaxOps")
	}
}

func TestValidateRejectsCyclicInput(t *testing.T) {
	in := &Instance{N: 2, Ops: []int{1, 1}, MaxOps: 4, MaxIn: 4, MaxOut: 4,
		Edges: [][2]int{{0, 1}, {1, 0}}}
	if err := in.Validate(); err == nil {
		t.Fatal("expected error: cyclic input graph")
	}
}

// TestTraversalAlwaysFeasibleRandom property-checks that every traversal
// order yields a feasible assignment on random DAGs (evaluate re-verifies all
// constraints).
func TestTraversalAlwaysFeasibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(20)
		in := &Instance{N: n, Ops: make([]int, n), MaxOps: 6, MaxIn: 4, MaxOut: 4}
		for i := range in.Ops {
			in.Ops[i] = 1 + rng.Intn(3)
		}
		indeg := make([]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 && indeg[j] < 3 {
					in.Edges = append(in.Edges, [2]int{i, j})
					indeg[j]++
				}
			}
		}
		for _, o := range AllOrders {
			if _, err := Traversal(in, o); err != nil {
				t.Errorf("trial %d %s: %v", trial, o, err)
			}
		}
	}
}
