package partition

import (
	"fmt"
	"time"

	"sara/internal/dfg"
	"sara/internal/ir"
)

// Algorithm selects the partitioning algorithm for graph application.
type Algorithm int

const (
	// AlgoBestTraversal tries all four traversal orders and keeps the best.
	AlgoBestTraversal Algorithm = iota
	// AlgoBFSForward through AlgoDFSBackward force one traversal order.
	AlgoBFSForward
	AlgoBFSBackward
	AlgoDFSForward
	AlgoDFSBackward
	// AlgoSolver uses the MIP formulation with a traversal warm start.
	AlgoSolver
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoBestTraversal:
		return "traversal-best"
	case AlgoBFSForward:
		return "bfs-fwd"
	case AlgoBFSBackward:
		return "bfs-bwd"
	case AlgoDFSForward:
		return "dfs-fwd"
	case AlgoDFSBackward:
		return "dfs-bwd"
	case AlgoSolver:
		return "solver"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// ApplyOptions tunes the graph-level compute partitioning pass.
type ApplyOptions struct {
	Algo Algorithm
	// Solver options, used when Algo == AlgoSolver.
	Gap       float64
	MaxNodes  int
	TimeLimit time.Duration
	// Workers is read by nothing: the solver searches on one goroutine.
	// The field remains only because the benchmark harness still sets it.
	Workers int
	// ColdLP forwards to the MIP solver (SolverOptions.ColdLP).
	ColdLP bool
	// MaxOps, MaxIn, MaxOut describe the PCU; zero values take the usual
	// Plasticine limits (6 stages, 4 in, 4 out).
	MaxOps, MaxIn, MaxOut int
	// Cache memoizes per-instance partitioning results across compiles. Nil
	// gives the pass its own instance memo (PassCache): repeated instances
	// of one compile are solved once.
	Cache SolverCache
}

func (o ApplyOptions) limits() (int, int, int) {
	ops, in, out := o.MaxOps, o.MaxIn, o.MaxOut
	if ops <= 0 {
		ops = 6
	}
	if in <= 0 {
		in = 4
	}
	if out <= 0 {
		out = 4
	}
	return ops, in, out
}

// ApplyStats summarizes a pass over the whole VUDFG.
type ApplyStats struct {
	SplitVUs  int // oversized units that were subdivided
	NewVUs    int // sub-units created
	RetimeVUs int // retiming slack recorded, in delay levels (buffers are
	// inserted by the retime optimization)
	Algo string
	// MIPNodes totals branch-and-bound nodes explored across all solver
	// invocations of the pass (zero for traversal algorithms).
	MIPNodes int
}

// Apply subdivides every compute-class unit whose op cost exceeds the PCU
// stage budget, using the block's real operation dataflow graph when
// available and a linear chain model otherwise (paper §III-B1). Cross-
// partition edges that span more than one delay level record Slack for the
// retiming optimization.
func Apply(g *dfg.Graph, opts ApplyOptions) (*ApplyStats, error) {
	maxOps, maxIn, maxOut := opts.limits()
	stats := &ApplyStats{Algo: opts.Algo.String()}
	opts.Cache = PassCache(opts.Cache)
	// Snapshot the unit list: splitting appends new units.
	units := g.LiveVUs()
	for _, u := range units {
		if !u.Kind.IsCompute() || u.Ops <= maxOps {
			continue
		}
		if err := splitVU(g, u, maxOps, maxIn, maxOut, opts, stats); err != nil {
			return nil, fmt.Errorf("partition: splitting %s: %w", u.Name, err)
		}
		stats.SplitVUs++
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("partition: graph invalid after apply: %w", err)
	}
	return stats, nil
}

// splitVU partitions one oversized unit and rewires its edges.
func splitVU(g *dfg.Graph, u *dfg.VU, maxOps, maxIn, maxOut int, opts ApplyOptions, stats *ApplyStats) error {
	in, opOf := buildInstance(g, u, maxOps, maxIn, maxOut)
	res, err := runAlgo(in, opts)
	if err != nil {
		return err
	}
	stats.MIPNodes += res.MIPNodes

	// Create sub-units, one per partition, ordered by quotient delay.
	delays, err := in.partitionDelays(res.Assign, res.NumParts)
	if err != nil {
		return err
	}
	subs := make([]*dfg.VU, res.NumParts)
	partOps := make([]int, res.NumParts)
	for i := 0; i < in.N; i++ {
		partOps[res.Assign[i]] += in.Ops[i]
	}
	for p := 0; p < res.NumParts; p++ {
		s := g.AddVU(u.Kind, fmt.Sprintf("%s.p%d", u.Name, p))
		s.Block = u.Block
		s.Mem = u.Mem
		s.Acc = u.Acc
		s.Ops = partOps[p]
		s.Stages = partOps[p]
		s.Lanes = u.Lanes
		s.Counters = append([]dfg.Counter(nil), u.Counters...)
		s.Instance = u.Instance
		s.HasAccum = u.HasAccum && p == res.NumParts-1
		subs[p] = s
		stats.NewVUs++
	}

	// Internal op-graph edges that cross partitions become data streams.
	seen := map[[2]int]bool{}
	for _, e := range in.Edges {
		ps, pd := res.Assign[e[0]], res.Assign[e[1]]
		if ps == pd || seen[[2]int{ps, pd}] {
			continue
		}
		seen[[2]int{ps, pd}] = true
		ne := g.AddEdge(subs[ps].ID, subs[pd].ID, dfg.EData)
		ne.Lanes = u.Lanes
		ne.Label = fmt.Sprintf("%s.split%d-%d", u.Name, ps, pd)
		if span := delays[pd] - delays[ps] - 1; span > 0 {
			ne.Slack = span
			stats.RetimeVUs += span
		}
	}

	// Rewire original in-edges: access data lands at the partition holding
	// the matching load op; everything else gates the first partition.
	accPart := accessPartition(g, u, opOf, res.Assign)
	for _, eid := range append([]dfg.EdgeID(nil), g.In(u.ID)...) {
		e := g.Edge(eid)
		target := subs[0]
		src := g.VU(e.Src)
		var acc ir.AccessID = -1
		if src != nil && src.Kind == dfg.VMU && e.Port != "" {
			acc = accessByName(g.Prog, e.Port)
		} else if src != nil && src.Kind == dfg.VAG {
			acc = src.Acc
		}
		if acc >= 0 {
			if p, ok := accPart[acc]; ok {
				target = subs[p]
			}
		}
		g.ReattachDst(eid, target.ID)
	}
	// Out-edges: stores leave from the partition holding the store op; token
	// pushes and everything else leave from the last partition (it completes
	// last, preserving ordering semantics).
	for _, eid := range append([]dfg.EdgeID(nil), g.Out(u.ID)...) {
		e := g.Edge(eid)
		source := subs[len(subs)-1]
		dst := g.VU(e.Dst)
		var acc ir.AccessID = -1
		if dst != nil && (dst.Kind == dfg.VCURequest || dst.Kind == dfg.VAG) && dst.Acc >= 0 {
			acc = dst.Acc
		}
		if acc >= 0 {
			if p, ok := accPart[acc]; ok {
				source = subs[p]
			}
		}
		g.ReattachSrc(eid, source.ID)
	}
	g.RemoveVU(u.ID)
	return nil
}

// buildInstance constructs the partitioning instance for a unit. When the
// unit carries its block's full op graph, the real DFG (with per-op stage
// costs, load/store anchors as zero-cost nodes) is used; split halves and
// synthetic units fall back to a unit-cost chain.
func buildInstance(g *dfg.Graph, u *dfg.VU, maxOps, maxIn, maxOut int) (*Instance, map[ir.AccessID]int) {
	opOf := map[ir.AccessID]int{}
	var blockOps []*ir.Op
	if u.Block != ir.NoCtrl {
		blockOps = g.Prog.Ctrl(u.Block).Ops
	}
	useReal := u.Block != ir.NoCtrl && g.Prog.BlockOpCount(u.Block) == u.Ops
	in := &Instance{MaxOps: maxOps, MaxIn: maxIn, MaxOut: maxOut}
	if useReal {
		in.N = len(blockOps)
		in.Ops = make([]int, in.N)
		in.ExtIn = make([]int, in.N)
		in.ExtOut = make([]int, in.N)
		for i, op := range blockOps {
			switch op.Kind {
			case ir.OpLoad:
				in.ExtIn[i] = 1
				opOf[op.Acc] = i
			case ir.OpStore:
				in.ExtOut[i] = 1
				opOf[op.Acc] = i
			default:
				in.Ops[i] = op.Kind.Stages()
			}
			for _, src := range op.Inputs {
				if src >= 0 && src != i {
					in.Edges = append(in.Edges, [2]int{src, i})
				}
			}
		}
		return in, opOf
	}
	// Chain model: u.Ops unit-cost nodes in sequence.
	in.N = u.Ops
	in.Ops = make([]int, in.N)
	for i := range in.Ops {
		in.Ops[i] = 1
	}
	for i := 0; i+1 < in.N; i++ {
		in.Edges = append(in.Edges, [2]int{i, i + 1})
	}
	return in, opOf
}

// accessPartition maps each anchored access to the partition of its op.
func accessPartition(g *dfg.Graph, u *dfg.VU, opOf map[ir.AccessID]int, assign []int) map[ir.AccessID]int {
	out := make(map[ir.AccessID]int, len(opOf))
	for acc, op := range opOf {
		out[acc] = assign[op]
	}
	return out
}

func runAlgo(in *Instance, opts ApplyOptions) (*Result, error) {
	return RunInstance(in, opts.Algo, SolverOptions{
		Gap: opts.Gap, MaxNodes: opts.MaxNodes, TimeLimit: opts.TimeLimit,
		ColdLP: opts.ColdLP,
	}, opts.Cache)
}

// accessByName resolves an access by its unique name (VMU edge ports carry
// access names).
func accessByName(p *ir.Program, name string) ir.AccessID {
	for _, a := range p.Accs {
		if a.Name == name {
			return a.ID
		}
	}
	return -1
}
