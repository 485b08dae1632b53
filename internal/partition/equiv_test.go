package partition_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sara/internal/core"
	"sara/internal/partition"
	"sara/internal/workloads"
)

// noTimeLimit keeps both legs of an equivalence run bounded by MaxNodes
// only: a wall-clock limit could truncate the two searches at different
// nodes and destroy the determinism the test is checking.
const noTimeLimit = time.Hour

// randomDAG builds a layered random DAG with mixed op costs, tight enough
// limits to force multi-partition solutions.
func randomDAG(rng *rand.Rand) *partition.Instance {
	n := 6 + rng.Intn(8) // 6..13 nodes
	in := &partition.Instance{N: n, Ops: make([]int, n), MaxOps: 4, MaxIn: 3, MaxOut: 3}
	for i := range in.Ops {
		in.Ops[i] = 1 + rng.Intn(3)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				in.Edges = append(in.Edges, [2]int{i, j})
			}
		}
	}
	return in
}

// TestSolverSerialParallelRandomInstances checks the solver-based
// partitioner returns bit-identical results from the serial oracle and the
// parallel speculative search on seeded random instances.
func TestSolverSerialParallelRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	// The race detector multiplies the LP pivot loops ~15x, so the race run
	// keeps just enough trials to drive the speculative workers through a
	// real instance; full-depth coverage comes from the native run and the
	// much cheaper randomized suite in internal/mip/parallel_test.go.
	trials := 10
	if raceEnabled {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		in := randomDAG(rng)
		serial, errS := partition.Solver(in, partition.SolverOptions{
			Workers: 1, MaxNodes: 30, TimeLimit: noTimeLimit,
		})
		par, errP := partition.Solver(in, partition.SolverOptions{
			Workers: 8, MaxNodes: 30, TimeLimit: noTimeLimit,
		})
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: serial err %v, parallel err %v", trial, errS, errP)
		}
		if errS != nil {
			continue
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("trial %d: serial %+v != parallel %+v", trial, serial, par)
		}
	}
}

// TestSolverMatchesOrBeatsTraversal holds at any search budget — the best
// traversal warm-starts the solver — so the budget is a node count, never
// the clock: what the test covers does not depend on host load. Trial 1 (10
// nodes into 6 partitions: a 750-row relaxation) is past lp's warm-start
// gate and solves every node cold, ~65 ms each: it is most of the test's
// ~4 s, and why the budget is 40 nodes and not thousands.
func TestSolverMatchesOrBeatsTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(6)
		in := &partition.Instance{N: n, Ops: make([]int, n), MaxOps: 4, MaxIn: 3, MaxOut: 3}
		for i := range in.Ops {
			in.Ops[i] = 1 + rng.Intn(2)
		}
		// Random DAG: forward edges, fan-in capped at 3 like real op DFGs.
		indeg := make([]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 && indeg[j] < 3 {
					in.Edges = append(in.Edges, [2]int{i, j})
					indeg[j]++
				}
			}
		}
		warm, err := partition.BestTraversal(in)
		if err != nil {
			t.Fatalf("trial %d traversal: %v", trial, err)
		}
		sol, err := partition.Solver(in, partition.SolverOptions{Gap: 0, MaxNodes: 40, TimeLimit: noTimeLimit})
		if err != nil {
			t.Fatalf("trial %d solver: %v", trial, err)
		}
		if sol.Cost > warm.Cost+1e-9 {
			t.Errorf("trial %d: solver cost %.3f worse than traversal %.3f", trial, sol.Cost, warm.Cost)
		}
	}
}

// TestSolverFindsBetterThanWorstTraversal proves its optimum well inside the
// node budget (milliseconds); the budget only bounds a regression.
func TestSolverFindsBetterThanWorstTraversal(t *testing.T) {
	// A two-track graph where naive BFS interleaving wastes arity: solver
	// (or the best traversal) should find the 2-partition packing.
	in := &partition.Instance{N: 8, Ops: []int{1, 1, 1, 1, 1, 1, 1, 1}, MaxOps: 4, MaxIn: 2, MaxOut: 2,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}}}
	sol, err := partition.Solver(in, partition.SolverOptions{Gap: 0, MaxNodes: 6000, TimeLimit: noTimeLimit})
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	if sol.NumParts != 2 {
		t.Errorf("solver parts = %d, want 2 (two chains of 4)", sol.NumParts)
	}
}

// solverConfig is the equivalence-test compile configuration: solver
// partitioning and merging, node-bounded search, no wall-clock limit. The
// node budget is deliberately small — the workload sweep checks pipeline
// equivalence on every registered benchmark, while deep-search determinism
// is exercised by TestSolverSerialParallelRandomInstances above.
func solverConfig(workers, maxNodes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.SkipPlace = true
	cfg.Partition.Algo = partition.AlgoSolver
	cfg.Merge.Algo = partition.AlgoSolver
	cfg.Partition.Gap = 0.15
	cfg.Merge.Gap = 0.15
	cfg.Partition.MaxNodes = maxNodes
	cfg.Merge.MaxNodes = maxNodes
	cfg.Partition.TimeLimit = noTimeLimit
	cfg.Merge.TimeLimit = noTimeLimit
	cfg.Partition.Workers = workers
	cfg.Merge.Workers = workers
	return cfg
}

// TestSolverSerialParallelEquivalenceWorkloads drains every registered
// benchmark through a solver-partitioned compile with the serial oracle and
// with the parallel search, in the style of the simulator's cross-engine
// equivalence suite, and requires identical compiled designs: same
// resources, same partition statistics, same merge result, same node
// counts — and the serial leg the design recorded in solver_golden.json.
func TestSolverSerialParallelEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// bs carries by far the largest partitioning LPs (~seconds per
			// branch-and-bound node); a budget of 2 keeps the sweep fast while
			// still running its MIP path end to end, and the race run drops it
			// entirely — the detector gets ample solver concurrency from the
			// other eleven workloads.
			maxNodes := 4
			if w.Name == "bs" {
				if raceEnabled {
					t.Skip("large-LP case skipped under the race detector")
				}
				maxNodes = 2
			}
			serial, err := core.Compile(w.Build(workloads.Params{Par: 2, Scale: 16}), solverConfig(1, maxNodes))
			if err != nil {
				t.Fatalf("serial compile: %v", err)
			}
			par, err := core.Compile(w.Build(workloads.Params{Par: 2, Scale: 16}), solverConfig(8, maxNodes))
			if err != nil {
				t.Fatalf("parallel compile: %v", err)
			}
			if serial.Resources() != par.Resources() {
				t.Errorf("resources: serial %+v, parallel %+v", serial.Resources(), par.Resources())
			}
			if !reflect.DeepEqual(serial.PartStats, par.PartStats) {
				t.Errorf("partition stats: serial %+v, parallel %+v", serial.PartStats, par.PartStats)
			}
			sc, pc := serial.Merged.Counts, par.Merged.Counts
			if sp, pp := scCounts(sc), scCounts(pc); sp != pp {
				t.Errorf("merge counts: serial %v, parallel %v", sp, pp)
			}
			if serial.Merged.MIPNodes != par.Merged.MIPNodes {
				t.Errorf("merge nodes: serial %d, parallel %d", serial.Merged.MIPNodes, par.Merged.MIPNodes)
			}
			if serial.MIPNodes() != par.MIPNodes() {
				t.Errorf("total MIP nodes: serial %d, parallel %d", serial.MIPNodes(), par.MIPNodes())
			}
			if serial.MIPNodes() == 0 {
				t.Logf("note: %s never reached the MIP solver at this size", w.Name)
			}
			checkGolden(t, "par2/"+w.Name, serial)
		})
	}
}

func scCounts(f func() (int, int, int)) [3]int {
	a, b, c := f()
	return [3]int{a, b, c}
}
