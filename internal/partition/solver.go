package partition

import (
	"fmt"
	"time"

	"sara/internal/mip"
)

// SolverOptions tunes the MIP-based partitioner (paper §III-B1d).
type SolverOptions struct {
	// Gap is the relative optimality gap (paper methodology: 0.15).
	Gap float64
	// MaxNodes and TimeLimit bound the branch-and-bound search.
	MaxNodes  int
	TimeLimit time.Duration
	// MaxParts caps the partition count P considered; zero derives it from
	// the warm-start traversal solution (the optimum cannot need more).
	MaxParts int
	// MaxN caps the instance size the exact formulation attempts; larger
	// instances fall back to the traversal warm start (the paper's Gurobi
	// runs take hours to days on full graphs — this models the practical
	// decomposition). Zero selects 28.
	MaxN int
	// ColdLP disables warm-started LP relaxations (benchmark baseline).
	ColdLP bool
}

// Solver partitions the instance with the Table III mixed-integer program:
// a boolean assignment matrix B (node × partition), per-node delay variables
// enforcing quotient acyclicity, per-(node,partition) arity indicators, and
// an objective of allocated partitions plus α-weighted retiming span. The
// best traversal result warm-starts the search, so the solver's answer is
// never worse than the heuristic's.
func Solver(in *Instance, opts SolverOptions) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	warm, err := BestTraversal(in)
	if err != nil {
		return nil, fmt.Errorf("partition: no feasible warm start: %w", err)
	}
	maxN := opts.MaxN
	if maxN <= 0 {
		maxN = 28
	}
	if in.N > maxN {
		warm.Algo = "solver-mip(decomposed)"
		return warm, nil
	}
	if opts.TimeLimit <= 0 {
		opts.TimeLimit = 10 * time.Second
	}
	P := opts.MaxParts
	if P <= 0 || P > warm.NumParts {
		P = warm.NumParts
	}
	if P < 1 {
		P = 1
	}
	N := in.N
	K := float64(N + 2) // big-M for delay spans

	// Variable layout:
	//   B[i][p]   = i*P + p                          (N*P binaries)
	//   used[p]   = N*P + p                          (P binaries)
	//   d[i]      = N*P + P + i                      (N continuous, 0..K)
	//   s[e]      = N*P + P + N + e                  (|E| binaries: same-partition)
	//   out[i][p] = base2 + i*P + p                  (N*P binaries: i broadcasts out of p)
	//   in[i][p]  = base3 + i*P + p                  (N*P binaries: ext source i feeds p)
	all := in.allEdges()
	E := len(all)
	base1 := N * P
	baseD := base1 + P
	baseS := baseD + N
	baseOut := baseS + E
	baseIn := baseOut + N*P
	baseDP := baseIn + N*P
	total := baseDP + P

	m := mip.NewProblem(total)
	vB := func(i, p int) int { return i*P + p }
	vUsed := func(p int) int { return base1 + p }
	vD := func(i int) int { return baseD + i }
	vS := func(e int) int { return baseS + e }
	vOut := func(i, p int) int { return baseOut + i*P + p }
	vIn := func(i, p int) int { return baseIn + i*P + p }
	vDP := func(p int) int { return baseDP + p }

	for i := 0; i < N; i++ {
		for p := 0; p < P; p++ {
			m.SetBinary(vB(i, p))
			m.SetBinary(vOut(i, p))
			m.SetBinary(vIn(i, p))
		}
		m.SetUpper(vD(i), K)
	}
	for p := 0; p < P; p++ {
		m.SetBinary(vUsed(p))
		// Objective: number of allocated partitions.
		m.SetObj(vUsed(p), 1)
		m.SetUpper(vDP(p), K)
	}
	for e := 0; e < E; e++ {
		m.SetBinary(vS(e))
	}
	// Retiming proxy in the objective: α·Σ over real edges of (d(j) − d(i)).
	alpha := in.alpha()
	for _, e := range in.Edges {
		m.AddObj(vD(e[1]), alpha)
		m.AddObj(vD(e[0]), -alpha)
	}

	// Assignment: each node in exactly one partition; used[p] covers it.
	for i := 0; i < N; i++ {
		idx := make([]int, P)
		coef := make([]float64, P)
		for p := 0; p < P; p++ {
			idx[p] = vB(i, p)
			coef[p] = 1
			m.AddConstraint([]int{vB(i, p), vUsed(p)}, []float64{1, -1}, mip.LE, 0)
		}
		m.AddConstraint(idx, coef, mip.EQ, 1)
	}
	// Symmetry breaking: partitions are used in order.
	for p := 0; p+1 < P; p++ {
		m.AddConstraint([]int{vUsed(p + 1), vUsed(p)}, []float64{1, -1}, mip.LE, 0)
	}
	// Capacity: Σ ops_i·B[i][p] ≤ MaxOps (the "reducible constraint").
	for p := 0; p < P; p++ {
		idx := make([]int, N)
		coef := make([]float64, N)
		for i := 0; i < N; i++ {
			idx[i] = vB(i, p)
			coef[i] = float64(in.Ops[i])
		}
		m.AddConstraint(idx, coef, mip.LE, float64(in.MaxOps))
	}
	// Delay consistency (paper Table III): a node's delay equals its
	// partition's delay, activated by B[i][p]. Without this, per-node delays
	// could increase around a quotient cycle and hide it.
	for i := 0; i < N; i++ {
		for p := 0; p < P; p++ {
			m.AddConstraint([]int{vD(i), vDP(p), vB(i, p)}, []float64{1, -1, K}, mip.LE, K)
			m.AddConstraint([]int{vDP(p), vD(i), vB(i, p)}, []float64{1, -1, K}, mip.LE, K)
		}
	}
	// Acyclicity via delays: d(i) + 1 − K·s_e ≤ d(j) per edge, with s_e
	// allowed to be 1 only when both endpoints share every partition.
	for e, ed := range all {
		i, j := ed[0], ed[1]
		m.AddConstraint([]int{vD(i), vS(e), vD(j)}, []float64{1, -K, -1}, mip.LE, -1)
		for p := 0; p < P; p++ {
			// s_e ≤ 1 − (B[i][p] − B[j][p]) and s_e ≤ 1 − (B[j][p] − B[i][p]).
			m.AddConstraint([]int{vS(e), vB(i, p), vB(j, p)}, []float64{1, 1, -1}, mip.LE, 1)
			m.AddConstraint([]int{vS(e), vB(j, p), vB(i, p)}, []float64{1, 1, -1}, mip.LE, 1)
		}
	}
	// Conflicting pairs must not share a partition.
	for _, c := range in.Conflicts {
		for p := 0; p < P; p++ {
			m.AddConstraint([]int{vB(c[0], p), vB(c[1], p)}, []float64{1, 1}, mip.LE, 1)
		}
	}
	// Arity indicators and limits.
	dest := make([][]int, N)
	for _, ed := range in.Edges {
		dest[ed[0]] = append(dest[ed[0]], ed[1])
	}
	for i := 0; i < N; i++ {
		for p := 0; p < P; p++ {
			for _, j := range dest[i] {
				// out[i][p] ≥ B[i][p] + (1 − B[j][p]) − 1: i in p feeding j
				// outside p broadcasts out of p.
				m.AddConstraint([]int{vOut(i, p), vB(i, p), vB(j, p)}, []float64{-1, 1, -1}, mip.LE, 0)
				// in[i][p] ≥ B[j][p] − B[i][p]: external source i feeds p.
				m.AddConstraint([]int{vIn(i, p), vB(j, p), vB(i, p)}, []float64{-1, 1, -1}, mip.LE, 0)
			}
		}
	}
	for p := 0; p < P; p++ {
		idxO := make([]int, 0, 2*N)
		coefO := make([]float64, 0, 2*N)
		idxI := make([]int, 0, 2*N)
		coefI := make([]float64, 0, 2*N)
		for i := 0; i < N; i++ {
			idxO = append(idxO, vOut(i, p))
			coefO = append(coefO, 1)
			idxI = append(idxI, vIn(i, p))
			coefI = append(coefI, 1)
			// External arity rides along with the node's assignment.
			if in.ExtOut != nil && in.ExtOut[i] > 0 {
				idxO = append(idxO, vB(i, p))
				coefO = append(coefO, float64(in.ExtOut[i]))
			}
			if in.ExtIn != nil && in.ExtIn[i] > 0 {
				idxI = append(idxI, vB(i, p))
				coefI = append(coefI, float64(in.ExtIn[i]))
			}
		}
		m.AddConstraint(idxO, coefO, mip.LE, float64(in.MaxOut))
		m.AddConstraint(idxI, coefI, mip.LE, float64(in.MaxIn))
	}

	// Warm start from the traversal solution.
	ws := make([]float64, total)
	nP := warm.NumParts
	delays, err := in.partitionDelays(warm.Assign, nP)
	if err != nil {
		return nil, err
	}
	for i, p := range warm.Assign {
		if p < P {
			ws[vB(i, p)] = 1
		}
		ws[vD(i)] = float64(delays[p])
	}
	for p := 0; p < P && p < nP; p++ {
		ws[vUsed(p)] = 1
		ws[vDP(p)] = float64(delays[p])
	}
	for e, ed := range all {
		if warm.Assign[ed[0]] == warm.Assign[ed[1]] {
			ws[vS(e)] = 1
		}
	}
	for i := 0; i < N; i++ {
		pi := warm.Assign[i]
		for _, j := range dest[i] {
			pj := warm.Assign[j]
			if pi != pj {
				ws[vOut(i, pi)] = 1
				ws[vIn(i, pj)] = 1
			}
		}
	}

	if opts.MaxNodes == 0 {
		opts.MaxNodes = 20000
	}
	sol, err := m.Solve(mip.Options{
		Gap:       opts.Gap,
		MaxNodes:  opts.MaxNodes,
		TimeLimit: opts.TimeLimit,
		WarmStart: ws,
		ColdLP:    opts.ColdLP,
	})
	if err != nil {
		return nil, fmt.Errorf("partition: solver: %w", err)
	}
	assign := make([]int, N)
	for i := 0; i < N; i++ {
		assign[i] = -1
		for p := 0; p < P; p++ {
			if sol.X[vB(i, p)] > 0.5 {
				assign[i] = p
				break
			}
		}
		if assign[i] < 0 {
			return nil, fmt.Errorf("partition: solver left node %d unassigned", i)
		}
	}
	compactAssign(assign)
	res, err := in.evaluate(assign, "solver-mip")
	if err != nil {
		return nil, fmt.Errorf("partition: solver produced invalid assignment: %w", err)
	}
	if res.Cost > warm.Cost {
		// The warm start is feasible; never return something worse.
		warm.Algo = "solver-mip(warm)"
		warm.MIPNodes = sol.Nodes
		return warm, nil
	}
	res.MIPNodes = sol.Nodes
	return res, nil
}

// compactAssign renumbers partitions densely in order of first appearance by
// quotient topological depth (first appearance in node order suffices for
// density; evaluate re-derives delays).
func compactAssign(assign []int) {
	remap := map[int]int{}
	next := 0
	for i, p := range assign {
		np, ok := remap[p]
		if !ok {
			np = next
			remap[p] = np
			next++
		}
		assign[i] = np
	}
}
